#!/usr/bin/env python3
"""Run one bench binary with tiny parameters and validate its JSON export.

Usage:
    bench_smoke.py [--schema=stats|gate] [--telemetry] [--introspect]
                   [--require-structure] [--group-persistency] [--require-smo]
                   [--fallback-storm] [--recovery-parallel]
                   [--expect-usage-error] <binary> [bench flags...]

Appends the JSON-export flag (--stats-json=FILE, or --gate-json=FILE for
--schema=gate) pointing at a temp file, runs the binary, and checks that it
exits 0 and that the export matches the documented schema:

  stats  obs registry snapshot (src/obs/export.hpp): {"meta": {...},
         "counters": {str: int}, "gauges": {str: num},
         "histograms": {str: {count,sum,min,max,mean,p50,p90,p99,p999}}}
         with meta.bench present.
  gate   bench_micro perf-gate export: meta-only document with
         schema == "rnt-gate-v2", numeric *_mops rates and integer
         *_persists_mode / *_fences_mode counts (the contract
         tools/perf_gate.py relies on).

With --telemetry (stats schema only) the bench additionally runs with
--sample-ms=50 and --perfetto=FILE: the stats document must then carry a
"timeseries" section with at least one rate window, and the Perfetto file
must be valid chrome://tracing JSON with thread_name metadata and complete
("X") slices carrying ts/dur/tid/name.

With --introspect (stats schema only) the document must carry a "heatmap"
section (run the bench with --heatmap-buckets=N) whose bucket table matches
the documented shape; when meta.heatmap_expected_bucket is present (fig10's
scripted conflict injection), the bucket with the most conflict aborts must
be exactly that bucket — the end-to-end check that attribution lands where
the contention actually is.  --require-structure additionally demands a
schema-valid "structure" section (benches that audit a tree, e.g. fig4).

With --group-persistency (stats schema only) meta must carry numeric
gp_fences_per_op_eager / gp_fences_per_op_batched, and the batched figure
must be strictly below eager whenever meta.batch > 1 — the machine-checkable
form of fig8's fence-amortization claim.

With --require-smo (stats schema only) the counters section must carry the
htm.smo.* cause family and record at least one committed COW install
(htm.smo.installs >= 1) — the smoke-level proof that structure
modifications went through the copy-on-write install path and exported
their telemetry.

With --fallback-storm (stats schema only) meta must carry the deterministic
DES cold-traffic ratios storm_cold_ratio_leaf (>= 0.5) and
storm_cold_ratio_global (strictly below leaf) — the machine-checkable form
of the leaf-lock-fallback robustness claim.

With --recovery-parallel (stats schema only) recovery.parallel_runs must
tick (the multi-worker crash-recovery path actually ran), the measured
serial/parallel timings must be exported, and meta.recovery_sim_speedup —
the deterministic virtual-time model of the block partition — must be
>= 2.5.

With --expect-usage-error the binary must exit 2 and print a usage message;
no JSON flag is appended.  Covers flag-validation hygiene (--sample-ms=0,
out-of-range --heatmap-buckets, ...).

Registered in bench/CMakeLists.txt as one ctest per bench binary, so "the
benches still run and still export what the tooling parses" is part of the
tier-1 suite rather than something discovered at paper-figure time.
"""

import json
import os
import subprocess
import sys
import tempfile

GATE_RATES = ["calib_mops", "find_mops", "insert_mops", "mixed_mops"]
GATE_PERSISTS = [
    "find_persists_mode",
    "insert_persists_mode",
    "update_persists_mode",
    "remove_persists_mode",
    "update_fences_mode",
    "batch8_fences_mode",
]
HIST_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p90", "p99", "p999"]
WINDOW_FIELDS = [
    "t_s",
    "dt_s",
    "ops",
    "ops_per_s",
    "abort_conflict_per_s",
    "abort_capacity_per_s",
    "abort_other_per_s",
    "fallback_per_s",
    "persists_per_op",
    "pool_bytes_per_s",
]


def fail(msg):
    print(f"bench_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_stats(doc):
    expect(isinstance(doc, dict), "document is not a JSON object")
    for section in ("meta", "counters", "gauges", "histograms"):
        expect(isinstance(doc.get(section), dict), f"missing object '{section}'")
    expect(isinstance(doc["meta"].get("bench"), str), "meta.bench missing")
    for k, v in doc["counters"].items():
        expect(isinstance(v, int) and v >= 0, f"counter {k!r} not a non-negative int")
    for k, v in doc["gauges"].items():
        expect(is_num(v), f"gauge {k!r} not a number")
    for k, h in doc["histograms"].items():
        expect(isinstance(h, dict), f"histogram {k!r} not an object")
        for f in HIST_FIELDS:
            expect(is_num(h.get(f)), f"histogram {k!r} missing numeric {f!r}")


def validate_timeseries(doc):
    ts = doc.get("timeseries")
    expect(isinstance(ts, dict), "missing object 'timeseries'")
    expect(isinstance(ts.get("interval_ms"), int) and ts["interval_ms"] > 0,
           "timeseries.interval_ms not a positive int")
    windows = ts.get("windows")
    expect(isinstance(windows, list) and windows,
           "timeseries.windows missing or empty")
    for i, w in enumerate(windows):
        for f in WINDOW_FIELDS:
            expect(is_num(w.get(f)), f"window[{i}] missing numeric {f!r}")
        expect(w["dt_s"] > 0, f"window[{i}].dt_s not positive")


def validate_perfetto(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"Perfetto export unreadable: {e}")
    events = doc.get("traceEvents")
    expect(isinstance(events, list) and events, "traceEvents missing or empty")
    metas = [e for e in events if e.get("ph") == "M"]
    slices = [e for e in events if e.get("ph") == "X"]
    expect(any(e.get("name") == "thread_name" for e in metas),
           "no thread_name metadata event")
    expect(slices, "no complete ('X') slice events")
    for e in slices[:100]:
        for f in ("ts", "dur"):
            expect(is_num(e.get(f)), f"slice missing numeric {f!r}: {e}")
        expect(isinstance(e.get("tid"), int), f"slice missing int tid: {e}")
        expect(isinstance(e.get("name"), str), f"slice missing name: {e}")


HEAT_CAUSES = [
    "aborts_conflict",
    "aborts_capacity",
    "aborts_other",
    "fallbacks",
    "lock_wait_timeouts",
    "lock_waits",
    "ops",
]


def validate_heatmap(doc):
    hm = doc.get("heatmap")
    expect(isinstance(hm, dict),
           "missing object 'heatmap' (run with --heatmap-buckets=N)")
    expect(isinstance(hm.get("buckets"), int) and hm["buckets"] >= 2,
           "heatmap.buckets not an int >= 2")
    events = hm.get("events")
    expect(isinstance(events, dict), "missing object 'heatmap.events'")
    for c in HEAT_CAUSES:
        expect(isinstance(events.get(c), int), f"heatmap.events.{c} not an int")
    top = hm.get("top")
    expect(isinstance(top, list), "heatmap.top not a list")
    for i, b in enumerate(top):
        expect(isinstance(b.get("bucket"), int) and 0 <= b["bucket"] < hm["buckets"],
               f"heatmap.top[{i}].bucket out of range")
        expect(isinstance(b.get("score"), int), f"heatmap.top[{i}].score not an int")
        expect(isinstance(b.get("lo"), int) and isinstance(b.get("hi"), int)
               and b["lo"] <= b["hi"],
               f"heatmap.top[{i}] lacks an int key range lo <= hi")
        for c in HEAT_CAUSES:
            expect(isinstance(b.get(c), int), f"heatmap.top[{i}].{c} not an int")
    # The tentpole's end-to-end assertion: fig10's scripted conflict storm on
    # a known key must surface as the top bucket by conflict-abort count.
    want = doc["meta"].get("heatmap_expected_bucket")
    if want is not None:
        expect(top, "heatmap.top empty despite scripted injection")
        hottest = max(top, key=lambda b: b["aborts_conflict"])
        expect(hottest["aborts_conflict"] > 0,
               "no conflict aborts recorded despite scripted injection")
        expect(hottest["bucket"] == want,
               f"hottest bucket by conflict aborts is {hottest['bucket']}, "
               f"expected {want} (meta.heatmap_expected_bucket)")


def validate_structure(doc):
    st = doc.get("structure")
    expect(isinstance(st, dict),
           "missing object 'structure' (bench did not audit a tree)")
    expect(isinstance(st.get("tree"), str), "structure.tree not a string")
    expect(isinstance(st.get("height"), int) and st["height"] >= 1,
           "structure.height not an int >= 1")
    for k in ("inner_fanout", "slot_capacity", "log_capacity"):
        expect(isinstance(st.get(k), int) and st[k] > 0,
               f"structure.{k} not a positive int")
    levels = st.get("levels")
    expect(isinstance(levels, list), "structure.levels not a list")
    for i, lv in enumerate(levels):
        for k in ("level", "nodes"):
            expect(isinstance(lv.get(k), int), f"levels[{i}].{k} not an int")
        for k in ("fill_avg", "fill_p50", "fill_p99"):
            expect(is_num(lv.get(k)), f"levels[{i}].{k} not a number")
    leaves = st.get("leaves")
    expect(isinstance(leaves, dict), "missing object 'structure.leaves'")
    for k in ("count", "live_entries", "log_used"):
        expect(isinstance(leaves.get(k), int), f"leaves.{k} not an int")
    for k in ("fill_avg", "fill_p50", "fill_p99", "chain_occupancy",
              "log_occupancy"):
        expect(is_num(leaves.get(k)), f"leaves.{k} not a number")
    expect(leaves["count"] >= 1, "leaves.count not >= 1")
    frag = st.get("fragmentation")
    if frag is not None:
        expect(isinstance(frag, dict), "structure.fragmentation not an object")
        for k in ("data_begin", "bump", "pool_size", "allocated_bytes",
                  "free_bytes", "tail_bytes", "largest_free_run",
                  "free_blocks", "chunks_total"):
            expect(isinstance(frag.get(k), int), f"fragmentation.{k} not an int")
        for i, ch in enumerate(frag.get("chunks", [])):
            for k in ("off", "live_bytes", "free_bytes", "largest_free_run"):
                expect(isinstance(ch.get(k), int), f"chunks[{i}].{k} not an int")


def validate_group_persistency(doc):
    """fig8's real-ShardedTree segment: batching K modifies under one
    durability barrier must strictly reduce fences per op vs eager."""
    meta = doc["meta"]
    eager = meta.get("gp_fences_per_op_eager")
    batched = meta.get("gp_fences_per_op_batched")
    expect(is_num(eager) and eager > 0,
           "meta.gp_fences_per_op_eager not a positive number")
    expect(is_num(batched) and batched > 0,
           "meta.gp_fences_per_op_batched not a positive number")
    batch = meta.get("batch", 1)
    if isinstance(batch, str):
        batch = int(batch)
    if batch > 1:
        expect(batched < eager,
               f"batched fences/op ({batched}) not below eager ({eager}) "
               f"despite batch={batch}")
    else:
        expect(batched <= eager * 1.05,
               f"batched fences/op ({batched}) above eager ({eager}) at batch=1")


def validate_smo(doc):
    """COW SMO telemetry: the htm.smo.* cause family must be exported and at
    least one install must have committed during the smoke run."""
    counters = doc["counters"]
    smo = {k: v for k, v in counters.items() if k.startswith("htm.smo.")}
    expect(smo, "no htm.smo.* counters in export")
    for k in ("htm.smo.installs", "htm.smo.validation_failures",
              "htm.smo.retry_fallbacks"):
        expect(k in counters, f"counter {k!r} missing from export")
    expect(counters["htm.smo.installs"] >= 1,
           "htm.smo.installs is 0 — no COW install committed during smoke")


def meta_num(meta, key):
    v = meta.get(key)
    if isinstance(v, str):
        try:
            v = float(v)
        except ValueError:
            fail(f"meta.{key} is not numeric: {v!r}")
    expect(is_num(v), f"meta.{key} missing or not a number")
    return v


def validate_fallback_storm(doc):
    """bench_ablation_fallback's DES panel is deterministic, so its exported
    cold-traffic survival ratios are asserted: the leaf-lock fallback keeps
    cold traffic >= 0.5x of calm throughput under the capacity-abort storm
    while the global fallback lock does strictly worse."""
    meta = doc["meta"]
    leaf = meta_num(meta, "storm_cold_ratio_leaf")
    glbl = meta_num(meta, "storm_cold_ratio_global")
    expect(leaf >= 0.5,
           f"leaf-lock cold-traffic ratio {leaf} < 0.5 under the storm")
    expect(glbl < leaf,
           f"global fallback lock ratio ({glbl}) not below leaf lock "
           f"({leaf}) — the storm failed to collapse the baseline")


def validate_recovery_parallel(doc):
    """fig7's parallel-recovery extension: the multi-worker crash-recovery
    path must actually run (recovery.parallel_runs ticks), export serial and
    parallel timings, and the deterministic virtual-time model must show the
    >= 2.5x speed-up (wall-clock speed-up is host-core bound, so only the
    timings are required, not their ratio)."""
    meta = doc["meta"]
    expect(meta_num(meta, "recovery_serial_ms") > 0,
           "meta.recovery_serial_ms not positive")
    expect(meta_num(meta, "recovery_parallel_ms") > 0,
           "meta.recovery_parallel_ms not positive")
    sim_speedup = meta_num(meta, "recovery_sim_speedup")
    expect(sim_speedup >= 2.5,
           f"simulated recovery speedup {sim_speedup} < 2.5")
    counters = doc["counters"]
    expect(counters.get("recovery.parallel_runs", 0) >= 1,
           "recovery.parallel_runs is 0 — the parallel path never ran")
    expect(counters.get("recovery.workers", 0) >= 2,
           "recovery.workers < 2 — no multi-worker recovery recorded")


def validate_gate(doc):
    expect(isinstance(doc, dict), "document is not a JSON object")
    meta = doc.get("meta")
    expect(isinstance(meta, dict), "missing object 'meta'")
    expect(meta.get("schema") == "rnt-gate-v2",
           f"meta.schema is {meta.get('schema')!r}, want 'rnt-gate-v2'")
    for k in GATE_RATES:
        expect(is_num(meta.get(k)) and meta[k] > 0, f"meta.{k} not a positive number")
    for k in GATE_PERSISTS:
        expect(isinstance(meta.get(k), int), f"meta.{k} not an integer")


def main():
    args = sys.argv[1:]
    schema = "stats"
    telemetry = False
    introspect = False
    require_structure = False
    group_persistency = False
    require_smo = False
    fallback_storm = False
    recovery_parallel = False
    expect_usage_error = False
    while args and args[0].startswith("--"):
        if args[0].startswith("--schema="):
            schema = args.pop(0).split("=", 1)[1]
        elif args[0] == "--telemetry":
            telemetry = True
            args.pop(0)
        elif args[0] == "--introspect":
            introspect = True
            args.pop(0)
        elif args[0] == "--require-structure":
            require_structure = True
            args.pop(0)
        elif args[0] == "--group-persistency":
            group_persistency = True
            args.pop(0)
        elif args[0] == "--require-smo":
            require_smo = True
            args.pop(0)
        elif args[0] == "--fallback-storm":
            fallback_storm = True
            args.pop(0)
        elif args[0] == "--recovery-parallel":
            recovery_parallel = True
            args.pop(0)
        elif args[0] == "--expect-usage-error":
            expect_usage_error = True
            args.pop(0)
        else:
            break
    if schema not in ("stats", "gate") or not args or (
            (telemetry or introspect or require_structure or group_persistency
             or require_smo or fallback_storm or recovery_parallel)
            and schema != "stats"):
        print(__doc__, file=sys.stderr)
        return 2

    binary, bench_args = args[0], args[1:]

    if expect_usage_error:
        proc = subprocess.run([binary] + bench_args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=600)
        if proc.returncode != 2:
            sys.stdout.buffer.write(proc.stdout + proc.stderr)
            fail(f"expected exit 2 for {' '.join(bench_args)}, "
                 f"got {proc.returncode}")
        if b"usage:" not in proc.stderr:
            sys.stdout.buffer.write(proc.stderr)
            fail("rejected flag did not print a usage message")
        print(f"bench_smoke: OK ({os.path.basename(binary)}, usage-error "
              f"for {' '.join(bench_args)})")
        return 0

    json_flag = "--gate-json=" if schema == "gate" else "--stats-json="
    fd, path = tempfile.mkstemp(prefix="bench_smoke_", suffix=".json")
    os.close(fd)
    perfetto_path = None
    if telemetry:
        fd, perfetto_path = tempfile.mkstemp(prefix="bench_smoke_perfetto_",
                                             suffix=".json")
        os.close(fd)
    try:
        cmd = [binary] + bench_args + [json_flag + path]
        if telemetry:
            cmd += ["--sample-ms=50", "--perfetto=" + perfetto_path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        if proc.returncode != 0:
            sys.stdout.buffer.write(proc.stdout)
            fail(f"{' '.join(cmd)} exited {proc.returncode}")
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"JSON export unreadable: {e}")
        (validate_gate if schema == "gate" else validate_stats)(doc)
        if telemetry:
            validate_timeseries(doc)
            validate_perfetto(perfetto_path)
        if introspect:
            validate_heatmap(doc)
        if require_structure:
            validate_structure(doc)
        if group_persistency:
            validate_group_persistency(doc)
        if require_smo:
            validate_smo(doc)
        if fallback_storm:
            validate_fallback_storm(doc)
        if recovery_parallel:
            validate_recovery_parallel(doc)
        mode = ", telemetry" if telemetry else ""
        if introspect:
            mode += ", introspect"
        if require_structure:
            mode += ", structure"
        if group_persistency:
            mode += ", group-persistency"
        if require_smo:
            mode += ", smo"
        if fallback_storm:
            mode += ", fallback-storm"
        if recovery_parallel:
            mode += ", recovery-parallel"
        print(f"bench_smoke: OK ({os.path.basename(binary)}, "
              f"schema={schema}{mode})")
        return 0
    finally:
        for p in (path, perfetto_path):
            if p is None:
                continue
            try:
                os.unlink(p)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
