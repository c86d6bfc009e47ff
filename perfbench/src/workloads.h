// The three benchmark workloads and what each run reports.
//
//  random-lib       library path, random permutations, default planner
//  near-sorted-lib  library path, presorted inputs, presortedness probe on
//  service-mixed    one SortService, closed loop of mixed job sizes
//
// A run with trace off measures the end-to-end metrics. A run with trace
// on measures the same workload twice in one process: a plain half (for
// trace_overhead_frac) and a traced half that yields the per-layer
// metrics.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/sort_report.h"
#include "harness.h"
#include "util/math_util.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  bool measurement_ok = true;       // internal cross-checks held
  std::vector<Metric> end_to_end;   // trace off
  std::vector<Metric> per_layer;    // trace on
  std::vector<std::string> notes;   // extra human-readable lines
};

RunResult run_library(const RunOptions& opt);
RunResult run_service(const RunOptions& opt);

/// Per-layer metric names every traced run reports, in output order, with
/// their units. Metrics a workload does not exercise read 0 and are named
/// in its notes.
inline const std::vector<std::pair<std::string, std::string>>&
per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.plan_us", "us"},
      {"core.probe_ms", "ms"},
      {"core.pass_pred_error", "ratio"},
      {"core.sort_s", "s"},
      {"core.fallback_frac", "ratio"},
      {"primitives.run_formation_share", "ratio"},
      {"primitives.run_formation_adaptive_share", "ratio"},
      {"primitives.merge_pass_share", "ratio"},
      {"primitives.lmm_group_merge_share", "ratio"},
      {"primitives.lmm_unshuffle_share", "ratio"},
      {"primitives.cleanup_share", "ratio"},
      {"primitives.rs_vs_fixed_ns_rec", "ratio"},
      {"internal.insort_ns_rec", "ns/rec"},
      {"internal.loser_tree_ns_rec", "ns/rec"},
      {"pdm.stage_s", "s"},
      {"pdm.device_busy_s", "s"},
      {"pdm.device_calls", "count"},
      {"pdm.device_mib", "MiB"},
      {"pdm.parallel_ops", "count"},
      {"pdm.blocks_per_op", "ratio"},
      {"pdm.blocks_per_call", "ratio"},
      {"pdm.caller_blocked_s", "s"},
      {"service.queue_frac", "ratio"},
      {"service.overhead_frac", "ratio"},
      {"service.depth_in_use_mean", "count"},
      {"service.cpu_in_use_mean", "count"},
      {"service.plan_cache_hit_ratio", "ratio"},
      {"util.helper_cpu_s", "s"},
      {"util.threads_peak", "count"},
      {"ref.std_sort_s", "s"},
      {"ref.vs_std_sort", "ratio"},
      {"trace_overhead_frac", "ratio"},
      {"trace.uncovered_frac", "ratio"},
      {"trace.sort_unattributed_frac", "ratio"},
  };
  return names;
}

/// End-to-end metric names every plain run reports, with their units.
inline const std::vector<std::pair<std::string, std::string>>&
end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},        {"sort_mrec_per_s", "Mrec/s"},
      {"latency_p50_s", "s"},  {"latency_p90_s", "s"},
      {"passes", "passes"},    {"cpu_s_per_mrec", "s/Mrec"},
      {"peak_mem_mib", "MiB"},
  };
  return names;
}

/// Builds an ordered metric list from a name -> value map; every name in
/// `names` must be present (a missing one is a benchmark bug).
std::vector<Metric> ordered_metrics(
    const std::vector<std::pair<std::string, std::string>>& names,
    const std::map<std::string, double>& values);

/// The repository's standard geometry: B = sqrt(M), D = sqrt(M) / 4.
struct Geometry {
  u64 rpb;
  u32 disks;
};

inline Geometry geometry(u64 mem) {
  const u64 s = pdm::isqrt(mem);
  return {s, static_cast<u32>(std::max<u64>(1, s / 4))};
}

/// Layer costs measured by calling the primitives and in-core kernels
/// directly on one of the workload's inputs: fixed and replacement-
/// selection run formation (run length M), `internal_sort` on M-record
/// slices, and a `LoserTree` merge of those slices (checked against the
/// oracle).
struct KernelCosts {
  double fixed_s = 0, rs_s = 0, insort_s = 0, loser_s = 0, records = 0;
  bool ok = true;

  void add(const KernelCosts& o) {
    fixed_s += o.fixed_s;
    rs_s += o.rs_s;
    insort_s += o.insort_s;
    loser_s += o.loser_s;
    records += o.records;
    ok = ok && o.ok;
  }
};

KernelCosts measure_kernels(const std::vector<u64>& keys,
                            const std::vector<u64>& sorted, u64 mem);

/// What the traced half records for each sort (library) or job (service).
struct LayerSample {
  usize shape = 0;
  pdm::SortReport report;
  double plan_us = 0;               // outside choose_plan replica
  std::optional<double> probe_ms;   // outside probe replica, when it had work
  double expected_passes = 0;       // the plan's prediction
  double sort_s = 0;                // pdm_sort wall
  double stage_s = 0;               // write_input_run
  double blocked_s = 0;             // wall - CPU of the thread calling pdm_sort
};

/// The per-layer metrics every workload derives the same way from its
/// traced sorts: core.*, primitives.*, internal.*, pdm.*, ref.* and
/// trace.sort_unattributed_frac. `dev` is the decorator total over the
/// same sorts; `std_sort_s` holds per-shape std::sort times.
void add_sort_layer_metrics(const std::vector<LayerSample>& samples,
                            usize shapes,
                            const std::vector<std::vector<double>>& std_sort_s,
                            const PassTimes& passes, const KernelCosts& kc,
                            const TimedBackend::Counters& dev,
                            std::map<std::string, double>& v,
                            std::vector<std::string>& notes);

/// Names the highest percentile `per_shape` samples support, and warns
/// when latency_p90_s is not one of them.
inline std::string tail_note(usize per_shape) {
  const auto q = highest_supported_percentile(per_shape);
  char pct[16] = "none";
  if (q) std::snprintf(pct, sizeof pct, "p%g", *q * 100);
  std::string note =
      std::string("highest percentile with >= 10 samples beyond it, per shape: ") + pct;
  if (!percentile_supported(per_shape, 0.9)) {
    note += "; latency_p90_s has " + std::to_string(samples_beyond(per_shape, 0.9)) +
            " samples beyond it, so read it as context, not as a tail";
  }
  return note;
}

/// Mean over shapes of each shape's median: the per-sort figure for a
/// workload that mixes shapes of different cost (a pooled median would
/// jump between the shapes' clusters from run to run).
inline double mean_of_medians(const std::vector<std::vector<double>>& by_shape) {
  std::vector<double> meds;
  for (const auto& xs : by_shape) {
    if (!xs.empty()) meds.push_back(median(xs));
  }
  return mean(meds);
}

inline double mean_of_quantiles(const std::vector<std::vector<double>>& by_shape,
                                double q) {
  std::vector<double> qs;
  for (const auto& xs : by_shape) {
    if (!xs.empty()) qs.push_back(quantile(xs, q));
  }
  return mean(qs);
}

}  // namespace perfbench
