// Measurement helpers for the repository benchmark: clocks, the
// percentile helper, the timing DiskBackend decorator, the sorted-output
// oracle, span self-time analysis over TraceLog snapshots, and the
// one-line JSON result writer. Everything here observes the library from
// outside, through its public headers.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pdm/disk_backend.h"
#include "util/trace.h"

namespace perfbench {

using pdm::u32;
using pdm::u64;
using pdm::usize;

// --- clocks --------------------------------------------------------------

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Threads of this process, from the `Threads:` line of /proc/self/status
/// (0 if the line cannot be read).
inline u64 process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

/// Background sampler: every few milliseconds records the process's
/// thread count (without its own thread) and runs `tick` (e.g. a service load probe). Its own CPU
/// time is reported so helper-CPU figures can exclude it.
class Sampler {
 public:
  explicit Sampler(std::function<void()> tick)
      : tick_(std::move(tick)), thread_([this] { loop(); }) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }
  u64 threads_peak() const { return peak_.load(); }
  double cpu_s() const { return cpu_s_.load(); }

 private:
  void loop() {
    const double c0 = thread_cpu_s();
    while (!stop_.load()) {
      // The sampler's own thread is not counted.
      const u64 threads = process_threads();
      peak_.store(std::max<u64>(peak_.load(), threads > 0 ? threads - 1 : 0));
      if (tick_) tick_();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    cpu_s_.store(thread_cpu_s() - c0);
  }

  std::function<void()> tick_;
  std::atomic<bool> stop_{false};
  std::atomic<u64> peak_{0};
  std::atomic<double> cpu_s_{0};
  std::thread thread_;  // last: starts after the members it uses
};

// --- percentiles -----------------------------------------------------------

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline usize samples_beyond(usize n, double q) {
  const auto rank = static_cast<usize>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, rank);
}

/// A percentile is named only when at least this many samples lie beyond
/// it; a tail figure drawn from fewer is one or two outliers, not a tail.
inline constexpr usize kMinBeyond = 10;

inline bool percentile_supported(usize n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinBeyond;
}

/// Nearest-rank q-quantile; 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<usize>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const usize h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

/// The highest of p50/p90/p99/p99.9 that n samples support, as a quantile
/// in (0, 1); nullopt when not even the median is supported.
inline std::optional<double> highest_supported_percentile(usize n) {
  std::optional<double> best;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (percentile_supported(n, q)) best = q;
  }
  return best;
}

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

// --- timing decorator ------------------------------------------------------

/// DiskBackend decorator that forwards every call unchanged and counts,
/// on whichever thread runs the transfer, the time spent inside the
/// wrapped backend, the requests passed (one per coalesced extent: the
/// unit IoStats::read_calls/write_calls count) and the bytes moved.
class TimedBackend final : public pdm::DiskBackend {
 public:
  explicit TimedBackend(std::shared_ptr<pdm::DiskBackend> inner)
      : inner_(std::move(inner)) {}

  u32 num_disks() const noexcept override { return inner_->num_disks(); }
  usize block_bytes() const noexcept override { return inner_->block_bytes(); }
  u64 disk_blocks(u32 disk) const override { return inner_->disk_blocks(disk); }

  void read_batch(std::span<const pdm::ReadReq> reqs) override {
    const double t0 = wall_s();
    inner_->read_batch(reqs);
    u64 blocks = 0;
    for (const auto& r : reqs) blocks += r.count;
    charge(t0, reqs.size(), blocks);
  }

  void write_batch(std::span<const pdm::WriteReq> reqs) override {
    const double t0 = wall_s();
    inner_->write_batch(reqs);
    u64 blocks = 0;
    for (const auto& r : reqs) blocks += r.count;
    charge(t0, reqs.size(), blocks);
  }

  struct Counters {
    double busy_s = 0;
    u64 calls = 0;
    u64 bytes = 0;
  };

  Counters counters() const {
    Counters c;
    c.busy_s = 1e-9 * static_cast<double>(busy_ns_.load());
    c.calls = calls_.load();
    c.bytes = bytes_.load();
    return c;
  }

 private:
  void charge(double t0, usize calls, u64 blocks) {
    const auto ns = static_cast<u64>(std::max(0.0, (wall_s() - t0) * 1e9));
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
    calls_.fetch_add(calls, std::memory_order_relaxed);
    bytes_.fetch_add(blocks * inner_->block_bytes(), std::memory_order_relaxed);
  }

  std::shared_ptr<pdm::DiskBackend> inner_;
  std::atomic<u64> busy_ns_{0};
  std::atomic<u64> calls_{0};
  std::atomic<u64> bytes_{0};
};

inline TimedBackend::Counters operator-(const TimedBackend::Counters& a,
                                        const TimedBackend::Counters& b) {
  return {a.busy_s - b.busy_s, a.calls - b.calls, a.bytes - b.bytes};
}

// --- oracle ----------------------------------------------------------------

/// Byte-for-byte comparison of a sort's output with std::sort of its input.
template <class R>
bool same_bytes(const std::vector<R>& got, const std::vector<R>& want) {
  return got.size() == want.size() &&
         (got.empty() ||
          std::memcmp(got.data(), want.data(), got.size() * sizeof(R)) == 0);
}

// --- spans -----------------------------------------------------------------

/// Pass spans the sorters already emit (category "pass"); the benchmark
/// adds none inside the library.
inline const std::vector<std::string>& pass_span_names() {
  static const std::vector<std::string> names = {
      "run_formation", "run_formation_adaptive", "merge_pass",
      "lmm_group_merge", "lmm_unshuffle", "cleanup"};
  return names;
}

/// Self time per pass-span name, plus the time of the whole-sort spans
/// ("sort.<algorithm>") those passes ran inside.
struct PassTimes {
  std::map<std::string, double> self_s;  // by pass span name
  double sort_s = 0;                      // sum of sort.* span durations
  double pass_self_s = 0;                 // sum of self_s over all passes

  void add(const PassTimes& o) {
    for (const auto& [k, v] : o.self_s) self_s[k] += v;
    sort_s += o.sort_s;
    pass_self_s += o.pass_self_s;
  }
};

/// Self time of every pass span that lies inside a captured sort.* span
/// on the same thread. Spans of one thread nest; a span's self time is its
/// duration minus that of its direct children. Only categories that nest
/// on one thread take part (io tickets and queue waits are retro spans
/// that may overlap).
inline PassTimes pass_times(const std::vector<pdm::trace::TraceEvent>& evs) {
  struct Span {
    u64 start, end;
    std::string name;
    bool is_pass, is_sort;
    u64 child_ns = 0;
  };
  std::map<u32, std::vector<Span>> by_tid;
  for (const auto& e : evs) {
    if (e.ph != 'X') continue;
    const std::string cat = e.cat == nullptr ? "" : e.cat;
    if (cat != "pass" && cat != "sort" && cat != "kernel") {
      continue;
    }
    const std::string name = e.name_str();
    by_tid[e.tid].push_back({e.ts_ns, e.ts_ns + e.dur_ns, name, cat == "pass",
                             cat == "sort", 0});
  }
  PassTimes out;
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // Parent of each span: the innermost earlier span that contains it.
    std::vector<usize> open;
    std::vector<long> parent(spans.size(), -1);
    for (usize i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end <= spans[i].start) {
        open.pop_back();
      }
      if (!open.empty() && spans[i].end <= spans[open.back()].end) {
        parent[i] = static_cast<long>(open.back());
        spans[open.back()].child_ns += spans[i].end - spans[i].start;
      }
      open.push_back(i);
    }
    for (usize i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.is_sort) out.sort_s += 1e-9 * static_cast<double>(s.end - s.start);
      if (!s.is_pass) continue;
      bool in_sort = false;
      for (long p = parent[i]; p >= 0; p = parent[static_cast<usize>(p)]) {
        if (spans[static_cast<usize>(p)].is_sort) {
          in_sort = true;
          break;
        }
      }
      if (!in_sort) continue;
      const u64 dur = s.end - s.start;
      const double self = 1e-9 * static_cast<double>(dur - std::min(dur, s.child_ns));
      out.self_s[s.name] += self;
      out.pass_self_s += self;
    }
  }
  return out;
}

/// Length of the union of [start, end) intervals (seconds).
inline double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Benchmark-owned top-level span for the attribution check: appends its
/// [start, end) wall interval to `cover`. A null `cover` records nothing
/// (plain runs).
class BenchSpan {
 public:
  explicit BenchSpan(std::vector<std::pair<double, double>>* cover)
      : cover_(cover), t0_(cover != nullptr ? wall_s() : 0) {}
  ~BenchSpan() {
    if (cover_ != nullptr) cover_->emplace_back(t0_, wall_s());
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  std::vector<std::pair<double, double>>* cover_;
  double t0_;
};

// --- result output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Human-readable line per metric, then the one-line JSON result that
/// must be the last line of standard output.
inline void print_result(bool correct, u64 attempted, u64 failed,
                         const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    char buf[64];
    // A non-finite value has already failed the run; keep the line JSON.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
