#!/usr/bin/env python3
"""Render a human-readable run report from a bench --stats-json export.

Usage:
    obs_report.py <stats.json | ->

Reads one stats document (src/obs/export.hpp shape) and prints:

  * a provenance header from "meta" (git SHA, build type, compiler, host,
    bench parameters),
  * a throughput timeline from "timeseries" — one row per rate window with
    an ASCII sparkline of ops/s, plus abort/fallback/persist rates — when
    the bench ran with --sample-ms=N,
  * a tail-latency table for every "lat.*" histogram (count, mean,
    p50/p90/p99/p999 in both ns and human units),
  * an HTM abort-cause breakdown from the htm.* counters,
  * crash-recovery counters (recovery.*) when the run recorded any,
  * a contention heatmap table from "heatmap" — the hottest buckets ranked
    by contention score with per-cause counts and an ASCII heat bar — when
    the bench ran with --heatmap-buckets=N,
  * a structural report from "structure" — tree height, per-level fill
    distribution and NVM pool fragmentation — when the bench audited a tree.

Stdlib only; pairs with tools/bench_smoke.py (which validates the same
document's schema in ctest).  Typical use:

    ./build/bench/bench_fig8_scalability --sample-ms=100 \
        --stats-json=stats.json --perfetto=trace.json
    python3 tools/obs_report.py stats.json
"""

import json
import sys

SPARK = "▁▂▃▄▅▆▇█"
META_ORDER = [
    "bench", "git_sha", "build_type", "compiler", "host_cores", "timestamp",
    "warm", "hot_keys", "seconds", "write_ns", "seed", "paper",
]


def fmt_si(v):
    """1234567 -> '1.23M' (rates and counts)."""
    for unit, div in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if abs(v) >= div:
            return f"{v / div:.2f}{unit}"
    return f"{v:.0f}" if float(v).is_integer() else f"{v:.2f}"


def fmt_ns(ns):
    """Nanoseconds -> human units."""
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f}us"
    return f"{ns:.0f}ns"


def sparkline(values):
    if not values:
        return ""
    hi = max(values)
    if hi <= 0:
        return SPARK[0] * len(values)
    return "".join(SPARK[min(len(SPARK) - 1,
                             int(v / hi * (len(SPARK) - 1) + 0.5))]
                   for v in values)


def print_meta(meta):
    print("== run ==")
    keys = [k for k in META_ORDER if k in meta]
    keys += sorted(k for k in meta if k not in META_ORDER)
    width = max((len(k) for k in keys), default=0)
    for k in keys:
        print(f"  {k:<{width}}  {meta[k]}")


def print_timeseries(ts):
    windows = ts.get("windows", [])
    if not windows:
        return
    print(f"\n== throughput timeline ({ts.get('interval_ms')} ms windows, "
          f"{len(windows)} shown of {ts.get('samples_total', '?')} samples) ==")
    rates = [w["ops_per_s"] for w in windows]
    print(f"  ops/s  {sparkline(rates)}")
    print(f"         min {fmt_si(min(rates))}  mean "
          f"{fmt_si(sum(rates) / len(rates))}  max {fmt_si(max(rates))}")
    # Wide tables drown the signal; show at most ~20 evenly spaced rows.
    step = max(1, len(windows) // 20)
    hdr = (f"  {'t_s':>8} {'ops/s':>10} {'abrt_cf/s':>10} {'abrt_cap/s':>10} "
           f"{'fallbk/s':>10} {'persist/op':>10} {'pool_B/s':>10}")
    print(hdr)
    for w in windows[::step]:
        print(f"  {w['t_s']:>8.3f} {fmt_si(w['ops_per_s']):>10} "
              f"{fmt_si(w['abort_conflict_per_s']):>10} "
              f"{fmt_si(w['abort_capacity_per_s']):>10} "
              f"{fmt_si(w['fallback_per_s']):>10} "
              f"{w['persists_per_op']:>10.3f} "
              f"{fmt_si(w['pool_bytes_per_s']):>10}")


def print_latency(hists):
    lat = {k: h for k, h in hists.items() if k.startswith("lat.")}
    if not lat:
        return
    print("\n== latency (ns; histograms are log-bucketed upper bounds) ==")
    width = max(len(k) for k in lat)
    print(f"  {'histogram':<{width}} {'count':>10} {'mean':>9} {'p50':>9} "
          f"{'p90':>9} {'p99':>9} {'p999':>9}")
    for k in sorted(lat):
        h = lat[k]
        print(f"  {k:<{width}} {fmt_si(h['count']):>10} "
              f"{fmt_ns(h['mean']):>9} {fmt_ns(h['p50']):>9} "
              f"{fmt_ns(h['p90']):>9} {fmt_ns(h['p99']):>9} "
              f"{fmt_ns(h['p999']):>9}")


def print_aborts(counters):
    attempts = counters.get("htm.attempts", 0)
    causes = [
        ("commits", counters.get("htm.commits", 0)),
        ("aborts_conflict", counters.get("htm.aborts_conflict", 0)),
        ("aborts_capacity", counters.get("htm.aborts_capacity", 0)),
        ("aborts_other", counters.get("htm.aborts_other", 0)),
    ]
    # The DES-simulated benches count aborts/fallbacks without attempts.
    if attempts == 0 and not any(v for _, v in causes):
        return
    print("\n== HTM ==")
    if attempts:
        print(f"  attempts      {fmt_si(attempts):>10}")
    for name, v in causes:
        if attempts:
            print(f"  {name:<13} {fmt_si(v):>10}  "
                  f"{100.0 * v / attempts:5.1f}% of attempts")
        elif v:
            print(f"  {name:<13} {fmt_si(v):>10}")
    fb = counters.get("htm.fallbacks", 0)
    ops = counters.get("op.completed", 0)
    if ops:
        print(f"  fallbacks     {fmt_si(fb):>10}  {100.0 * fb / ops:5.1f}% of "
              f"{fmt_si(ops)} ops")
    else:
        print(f"  fallbacks     {fmt_si(fb):>10}")


def print_recovery(counters):
    runs = counters.get("recovery.runs", 0)
    if not runs:
        return
    print("\n== recovery ==")
    rows = [
        ("runs", runs),
        ("parallel_runs", counters.get("recovery.parallel_runs", 0)),
        ("workers", counters.get("recovery.workers", 0)),
        ("leaves", counters.get("recovery.leaves", 0)),
        ("corrupt_leaves", counters.get("recovery.corrupt_leaves", 0)),
        ("rollbacks", counters.get("recovery.rollbacks", 0)),
    ]
    for name, v in rows:
        print(f"  {name:<15} {fmt_si(v):>10}")


def heat_bar(score, hi, width=24):
    if hi <= 0:
        return ""
    n = max(1, round(score / hi * width)) if score > 0 else 0
    return "#" * n


def print_heatmap(hm):
    print(f"\n== contention heatmap ({hm.get('buckets')} key-range "
          f"buckets) ==")
    ev = hm.get("events", {})
    total = sum(v for k, v in ev.items() if k != "ops")
    print(f"  events: {fmt_si(ev.get('ops', 0))} ops, "
          f"{fmt_si(total)} contention "
          f"(conflict {fmt_si(ev.get('aborts_conflict', 0))}, "
          f"capacity {fmt_si(ev.get('aborts_capacity', 0))}, "
          f"other {fmt_si(ev.get('aborts_other', 0))}, "
          f"fallback {fmt_si(ev.get('fallbacks', 0))}, "
          f"lock-wait {fmt_si(ev.get('lock_waits', 0))}, "
          f"lock-timeout {fmt_si(ev.get('lock_wait_timeouts', 0))})")
    top = hm.get("top", [])
    if not top:
        print("  (no bucket recorded any event)")
        return
    hi = max(b.get("score", 0) for b in top)
    print(f"  {'bucket':>6} {'range':>24} {'score':>8} {'conflict':>8} "
          f"{'capacity':>8} {'fallbk':>8} {'ops':>8}")
    for b in top[:16]:
        rng = (f"[{b['lo']:#x},{b['hi']:#x}]"
               if "lo" in b and "hi" in b else "-")
        if len(rng) > 24:
            rng = f"[{b['lo']:#x},..]"
        print(f"  {b['bucket']:>6} {rng:>24} {fmt_si(b.get('score', 0)):>8} "
              f"{fmt_si(b.get('aborts_conflict', 0)):>8} "
              f"{fmt_si(b.get('aborts_capacity', 0)):>8} "
              f"{fmt_si(b.get('fallbacks', 0)):>8} "
              f"{fmt_si(b.get('ops', 0)):>8}  "
              f"{heat_bar(b.get('score', 0), hi)}")


def print_structure(st):
    print(f"\n== structure ({st.get('tree', '?')}) ==")
    print(f"  height {st.get('height')}  inner_fanout {st.get('inner_fanout')}"
          f"  slot_capacity {st.get('slot_capacity')}"
          f"  log_capacity {st.get('log_capacity')}")
    for lv in st.get("levels", []):
        print(f"  level {lv['level']:>2}: {fmt_si(lv['nodes']):>8} nodes, "
              f"fill avg {lv['fill_avg']:.2f} "
              f"p50 {lv['fill_p50']:.2f} p99 {lv['fill_p99']:.2f}")
    lf = st.get("leaves")
    if lf:
        print(f"  leaves:   {fmt_si(lf['count']):>8} nodes, "
              f"{fmt_si(lf['live_entries'])} live entries, "
              f"fill avg {lf['fill_avg']:.2f} p50 {lf['fill_p50']:.2f} "
              f"p99 {lf['fill_p99']:.2f}")
        print(f"            chain occupancy {lf['chain_occupancy']:.2f}, "
              f"log occupancy {lf['log_occupancy']:.2f}")
    fr = st.get("fragmentation")
    if fr:
        alloc = fr.get("allocated_bytes", 0)
        free = fr.get("free_bytes", 0)
        print(f"  pool:     {fmt_si(alloc)}B allocated, {fmt_si(free)}B free "
              f"inside the frontier, {fmt_si(fr.get('tail_bytes', 0))}B tail, "
              f"largest free run {fmt_si(fr.get('largest_free_run', 0))}B in "
              f"{fmt_si(fr.get('free_blocks', 0))} blocks over "
              f"{fr.get('chunks_total', 0)} chunks")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = sys.argv[1]
    try:
        doc = json.load(sys.stdin if src == "-" else open(src))
    except (OSError, json.JSONDecodeError) as e:
        print(f"obs_report: cannot read {src}: {e}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print("obs_report: document is not a JSON object", file=sys.stderr)
        return 1
    print_meta(doc.get("meta", {}))
    ts = doc.get("timeseries")
    if isinstance(ts, dict):
        print_timeseries(ts)
    else:
        print("\n(no timeseries section — run the bench with --sample-ms=N)")
    print_latency(doc.get("histograms", {}))
    print_aborts(doc.get("counters", {}))
    print_recovery(doc.get("counters", {}))
    hm = doc.get("heatmap")
    if isinstance(hm, dict):
        print_heatmap(hm)
    else:
        print("\n(no heatmap section — run the bench with --heatmap-buckets=N)")
    st = doc.get("structure")
    if isinstance(st, dict):
        print_structure(st)
    else:
        print("\n(no structure section — only benches that audit a tree, e.g. "
              "fig4, export one)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
