#include "obs/trace.hpp"

#include <atomic>
#include <memory>
#include <mutex>

#include "obs/phase.hpp"

namespace rnt::obs {

namespace {

struct Ring {
  std::vector<TraceEvent> buf;
  std::uint64_t head = 0;  // total events ever written by the owner
  std::uint64_t seq = 0;
  std::uint32_t tid = 0;
};

std::atomic<std::size_t> g_cap{0};
std::atomic<std::uint64_t> g_gen{1};  // bumped by clear_traces()
std::mutex g_mu;
std::uint32_t g_next_tid = 0;

// Owns every ring ever created (exited threads' rings are retained for
// post-mortems).  Leaked so late-exiting threads can't outlive it.
std::vector<std::unique_ptr<Ring>>& rings() {
  static auto* r = new std::vector<std::unique_ptr<Ring>>;
  return *r;
}

// POD thread-local: no guard check, no destructor.  A stale pointer after
// clear_traces() is never dereferenced because the generation mismatches.
struct TlsRing {
  Ring* ring;
  std::uint64_t gen;
};
thread_local TlsRing t_ring{nullptr, 0};

Ring* acquire_ring(std::size_t cap) {
  std::lock_guard lk(g_mu);
  auto r = std::make_unique<Ring>();
  r->buf.resize(cap);
  r->tid = g_next_tid++;
  Ring* raw = r.get();
  rings().push_back(std::move(r));
  t_ring = {raw, g_gen.load(std::memory_order_relaxed)};
  return raw;
}

void append_ring(const Ring& r, std::vector<TraceEvent>& out) {
  const std::uint64_t cap = r.buf.size();
  if (cap == 0) return;
  const std::uint64_t n = r.head < cap ? r.head : cap;
  for (std::uint64_t i = r.head - n; i < r.head; ++i)
    out.push_back(r.buf[i % cap]);
}

}  // namespace

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kFind: return "find";
    case OpKind::kInsert: return "insert";
    case OpKind::kUpdate: return "update";
    case OpKind::kUpsert: return "upsert";
    case OpKind::kRemove: return "remove";
    case OpKind::kScan: return "scan";
    case OpKind::kOther: return "other";
  }
  return "?";
}

const char* to_string(OpResult r) noexcept {
  switch (r) {
    case OpResult::kOk: return "ok";
    case OpResult::kMiss: return "miss";
    case OpResult::kCrash: return "crash";
    case OpResult::kUnknown: return "unknown";
  }
  return "?";
}

void set_trace_capacity(std::size_t events_per_thread) {
  g_cap.store(events_per_thread, std::memory_order_relaxed);
  detail::set_arm(detail::kArmTrace, events_per_thread != 0);
}

std::size_t trace_capacity() noexcept {
  return g_cap.load(std::memory_order_relaxed);
}

bool trace_enabled() noexcept { return trace_capacity() != 0; }

namespace {

void record_event(const TraceEvent& ev, bool keep_thread_id) noexcept {
  const std::size_t cap = g_cap.load(std::memory_order_relaxed);
  if (cap == 0) return;
  const TlsRing tr = t_ring;
  Ring* r = (tr.ring != nullptr && tr.gen == g_gen.load(std::memory_order_relaxed))
                ? tr.ring
                : acquire_ring(cap);
  TraceEvent e = ev;
  e.seq = r->seq++;
  if (!keep_thread_id) e.thread_id = r->tid;
  r->buf[r->head % r->buf.size()] = e;
  ++r->head;
}

}  // namespace

void trace(const TraceEvent& ev) noexcept { record_event(ev, false); }

void trace_virtual(const TraceEvent& ev) noexcept { record_event(ev, true); }

std::vector<TraceEvent> collect_traces() {
  std::lock_guard lk(g_mu);
  std::vector<TraceEvent> out;
  for (const auto& r : rings()) append_ring(*r, out);
  return out;
}

std::size_t dump_traces(std::FILE* out) {
  std::vector<TraceEvent> evs;
  std::size_t nrings = 0;
  {
    std::lock_guard lk(g_mu);
    for (const auto& r : rings()) append_ring(*r, evs);
    nrings = rings().size();
  }
  std::fprintf(out, "--- obs trace dump: %zu event(s), %zu ring(s) ---\n",
               evs.size(), nrings);
  for (const TraceEvent& e : evs) {
    std::fprintf(out,
                 "t%u #%llu %-7s %-7s key=%llu leaf=%llu htm=%u persists=%u "
                 "lat=%lluns abrt=%u/%u/%u fb=%u "
                 "phase=htm:%u,lock:%u,persist:%u,smo:%u\n",
                 e.thread_id, static_cast<unsigned long long>(e.seq),
                 to_string(static_cast<OpKind>(e.op)),
                 to_string(static_cast<OpResult>(e.result)),
                 static_cast<unsigned long long>(e.key),
                 static_cast<unsigned long long>(e.leaf_off), e.htm_attempts,
                 e.persists, static_cast<unsigned long long>(e.latency_ns),
                 e.aborts_conflict, e.aborts_capacity, e.aborts_other,
                 e.fallbacks, e.phase_htm_ns, e.phase_lock_ns,
                 e.phase_persist_ns, e.phase_smo_ns);
  }
  return evs.size();
}

void traces_json(std::string& out) {
  const std::vector<TraceEvent> evs = collect_traces();
  out += '[';
  char buf[512];
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"thread\":%u,\"seq\":%llu,\"op\":\"%s\",\"result\":\"%s\","
                  "\"key\":%llu,\"leaf\":%llu,\"htm_attempts\":%u,"
                  "\"persists\":%u,\"latency_ns\":%llu,"
                  "\"aborts_conflict\":%u,\"aborts_capacity\":%u,"
                  "\"aborts_other\":%u,\"fallbacks\":%u,"
                  "\"phase_htm_ns\":%u,\"phase_lock_ns\":%u,"
                  "\"phase_persist_ns\":%u,\"phase_smo_ns\":%u}",
                  i == 0 ? "" : ",", e.thread_id,
                  static_cast<unsigned long long>(e.seq),
                  to_string(static_cast<OpKind>(e.op)),
                  to_string(static_cast<OpResult>(e.result)),
                  static_cast<unsigned long long>(e.key),
                  static_cast<unsigned long long>(e.leaf_off), e.htm_attempts,
                  e.persists, static_cast<unsigned long long>(e.latency_ns),
                  e.aborts_conflict, e.aborts_capacity, e.aborts_other,
                  e.fallbacks, e.phase_htm_ns, e.phase_lock_ns,
                  e.phase_persist_ns, e.phase_smo_ns);
    out += buf;
  }
  out += ']';
}

void clear_traces() {
  std::lock_guard lk(g_mu);
  g_gen.fetch_add(1, std::memory_order_relaxed);
  rings().clear();
}

}  // namespace rnt::obs
