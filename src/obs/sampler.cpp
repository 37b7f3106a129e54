#include "obs/sampler.hpp"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "common/timing.hpp"
#include "htm/rtm.hpp"
#include "nvm/persist.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"

namespace rnt::obs {

namespace {

struct Sample {
  std::uint64_t ts_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t aborts_conflict = 0;
  std::uint64_t aborts_capacity = 0;
  std::uint64_t aborts_other = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t persists = 0;
  std::uint64_t pool_bytes = 0;
};

Sample take_sample() {
  static const Counter ops("op.completed");
  static const Counter pool_bytes("pool.alloc_bytes");
  const htm::HtmCounters& h = htm::htm_counters();
  Sample s;
  s.ts_ns = now_ns();
  s.ops = ops.value();
  s.aborts_conflict = h.aborts_conflict.value();
  s.aborts_capacity = h.aborts_capacity.value();
  s.aborts_other = h.aborts_other.value();
  s.fallbacks = h.fallbacks.value();
  s.persists = nvm::persist_counters().persist.value();
  s.pool_bytes = pool_bytes.value();
  return s;
}

}  // namespace

struct Sampler::Impl {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::deque<Sample> ring;
  SamplerConfig cfg;
  std::uint64_t t0_ns = 0;
  std::uint64_t total = 0;
  bool running = false;
  std::thread thr;

  void push_locked(const Sample& s) {
    ring.push_back(s);
    ++total;
    while (ring.size() > cfg.capacity) ring.pop_front();
  }

  void run() {
    std::unique_lock lk(mu);
    while (running) {
      lk.unlock();
      const Sample s = take_sample();  // aggregates outside our own mutex
      heatmap_tick(s.ts_ns);  // counter-track sample, same cadence
      lk.lock();
      if (!running) break;  // stop() raced: it takes the final sample itself
      push_locked(s);
      cv.wait_for(lk, std::chrono::milliseconds(cfg.interval_ms),
                  [&] { return !running; });
    }
  }
};

Sampler::Impl* Sampler::impl() const {
  if (impl_ == nullptr) impl_ = new Impl;
  return impl_;
}

// stop() joins the sampling thread, so nothing can touch the state after it.
Sampler::~Sampler() {
  if (impl_ == nullptr) return;
  stop();
  delete impl_;
}

void Sampler::start(SamplerConfig cfg) {
  Impl* i = impl();
  std::unique_lock lk(i->mu);
  if (i->running) return;
  if (i->thr.joinable()) i->thr.join();  // previous run fully retired
  if (cfg.interval_ms == 0) cfg.interval_ms = 1;
  if (cfg.capacity < 2) cfg.capacity = 2;
  i->cfg = cfg;
  i->ring.clear();
  i->total = 0;
  i->t0_ns = now_ns();
  i->running = true;
  lk.unlock();
  Sample first = take_sample();  // t=0 baseline, before workers start
  heatmap_tick(first.ts_ns);
  lk.lock();
  i->push_locked(first);
  i->thr = std::thread([i] { i->run(); });
}

void Sampler::stop() {
  Impl* i = impl();
  std::unique_lock lk(i->mu);
  if (!i->running) return;
  i->running = false;
  i->cv.notify_all();
  lk.unlock();
  i->thr.join();
  const Sample last = take_sample();  // final window covers the run's tail
  heatmap_tick(last.ts_ns);
  lk.lock();
  i->push_locked(last);
}

bool Sampler::running() const {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  return i->running;
}

std::uint32_t Sampler::interval_ms() const {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  return i->cfg.interval_ms;
}

std::size_t Sampler::sample_count() const {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  return i->ring.size();
}

std::uint64_t Sampler::total_samples() const {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  return i->total;
}

void Sampler::clear() {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  i->ring.clear();
  i->total = 0;
}

std::vector<RateWindow> Sampler::windows() const {
  Impl* i = impl();
  std::lock_guard lk(i->mu);
  std::vector<RateWindow> out;
  if (i->ring.size() < 2) return out;
  out.reserve(i->ring.size() - 1);
  for (std::size_t k = 1; k < i->ring.size(); ++k) {
    const Sample& a = i->ring[k - 1];
    const Sample& b = i->ring[k];
    RateWindow w;
    w.t_s = static_cast<double>(b.ts_ns - i->t0_ns) * 1e-9;
    w.dt_s = static_cast<double>(b.ts_ns - a.ts_ns) * 1e-9;
    if (w.dt_s <= 0) continue;  // clock glitch: skip, never divide by zero
    const double inv_dt = 1.0 / w.dt_s;
    w.ops = b.ops - a.ops;
    w.ops_per_s = static_cast<double>(w.ops) * inv_dt;
    w.abort_conflict_per_s =
        static_cast<double>(b.aborts_conflict - a.aborts_conflict) * inv_dt;
    w.abort_capacity_per_s =
        static_cast<double>(b.aborts_capacity - a.aborts_capacity) * inv_dt;
    w.abort_other_per_s =
        static_cast<double>(b.aborts_other - a.aborts_other) * inv_dt;
    w.fallback_per_s = static_cast<double>(b.fallbacks - a.fallbacks) * inv_dt;
    const std::uint64_t dpersists = b.persists - a.persists;
    w.persists_per_op =
        w.ops != 0 ? static_cast<double>(dpersists) / static_cast<double>(w.ops)
                   : 0.0;
    w.pool_bytes_per_s =
        static_cast<double>(b.pool_bytes - a.pool_bytes) * inv_dt;
    out.push_back(w);
  }
  return out;
}

Sampler& sampler() {
  static Sampler s;
  return s;
}

std::string timeseries_json() {
  Sampler& s = sampler();
  const std::vector<RateWindow> ws = s.windows();
  if (ws.empty()) return {};
  std::string out;
  out.reserve(256 + ws.size() * 192);
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\n    \"interval_ms\": %u,\n    \"samples_retained\": %zu,\n"
                "    \"samples_total\": %llu,\n    \"windows\": [",
                s.interval_ms(), s.sample_count(),
                static_cast<unsigned long long>(s.total_samples()));
  out += buf;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const RateWindow& w = ws[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n      {\"t_s\": %.6f, \"dt_s\": %.6f, \"ops\": %llu, "
        "\"ops_per_s\": %.3f, \"abort_conflict_per_s\": %.3f, "
        "\"abort_capacity_per_s\": %.3f, \"abort_other_per_s\": %.3f, "
        "\"fallback_per_s\": %.3f, \"persists_per_op\": %.4f, "
        "\"pool_bytes_per_s\": %.3f}",
        i == 0 ? "" : ",", w.t_s, w.dt_s,
        static_cast<unsigned long long>(w.ops), w.ops_per_s,
        w.abort_conflict_per_s, w.abort_capacity_per_s, w.abort_other_per_s,
        w.fallback_per_s, w.persists_per_op, w.pool_bytes_per_s);
    out += buf;
  }
  out += "\n    ]\n  }";
  return out;
}

}  // namespace rnt::obs
