// Per-layer measurements shared by every workload: the direct kernel and
// run-formation arms, and the metrics computed the same way from each
// workload's sorts.
#include "core/adaptive.h"
#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "primitives/run_formation.h"
#include "workloads.h"

namespace perfbench {

KernelCosts measure_kernels(const std::vector<u64>& keys,
                            const std::vector<u64>& sorted, u64 mem) {
  KernelCosts kc;
  const usize n = keys.size();
  const Geometry g = geometry(mem);
  kc.records = static_cast<double>(n);
  // Run formation, fixed and replacement selection, each on a fresh
  // context holding the same staged input.
  for (const auto mode : {pdm::RunFormationMode::kFixed,
                          pdm::RunFormationMode::kReplacementSelection}) {
    auto ctx = pdm::make_memory_context(g.disks, g.rpb * sizeof(u64));
    auto run = pdm::write_input_run<u64>(*ctx, std::span<const u64>(keys));
    pdm::RunFormationOptions ro;
    ro.run_len = mem;
    ro.mode = mode;
    const double t0 = wall_s();
    auto runs = pdm::form_sorted_runs<u64>(*ctx, run, ro);
    (mode == pdm::RunFormationMode::kFixed ? kc.fixed_s : kc.rs_s) = wall_s() - t0;
  }
  // In-core sort of M-record slices, then a loser-tree merge of them.
  std::vector<u64> buf = keys;
  const usize m = static_cast<usize>(mem);
  const double t0 = wall_s();
  for (usize off = 0; off < n; off += m) {
    pdm::internal_sort(std::span<u64>(buf.data() + off, std::min(m, n - off)));
  }
  const double t1 = wall_s();
  const usize k = pdm::ceil_div(n, m);
  std::vector<usize> pos(k);
  pdm::LoserTree<u64> lt(k);
  for (usize i = 0; i < k; ++i) {
    pos[i] = i * m;
    lt.set_initial(i, buf[pos[i]]);
  }
  lt.build();
  std::vector<u64> out;
  out.reserve(n);
  while (!lt.empty()) {
    const usize src = lt.min_source();
    out.push_back(lt.min_value());
    if (++pos[src] < std::min(n, (src + 1) * m)) {
      lt.replace_min(buf[pos[src]]);
    } else {
      lt.exhaust_min();
    }
  }
  kc.insort_s = t1 - t0;
  kc.loser_s = wall_s() - t1;
  kc.ok = same_bytes(out, sorted);
  return kc;
}

void add_sort_layer_metrics(const std::vector<LayerSample>& samples,
                            usize shapes,
                            const std::vector<std::vector<double>>& std_sort_s,
                            const PassTimes& passes, const KernelCosts& kc,
                            const TimedBackend::Counters& dev,
                            std::map<std::string, double>& v,
                            std::vector<std::string>& notes) {
  std::vector<std::vector<double>> plan(shapes), probe(shapes), sort(shapes),
      stage(shapes), blocked(shapes);
  std::map<std::string, std::vector<double>> by_algo;
  double err_w = 0, recs = 0, fallbacks = 0, ops = 0, blocks = 0, calls = 0;
  for (const auto& s : samples) {
    const auto& r = s.report;
    plan[s.shape].push_back(s.plan_us);
    if (s.probe_ms) probe[s.shape].push_back(*s.probe_ms);
    sort[s.shape].push_back(s.sort_s);
    stage[s.shape].push_back(s.stage_s);
    blocked[s.shape].push_back(s.blocked_s);
    by_algo[r.algorithm].push_back(s.sort_s);
    if (s.expected_passes > 0) {
      err_w += static_cast<double>(r.n) *
               std::abs(r.passes - s.expected_passes) / s.expected_passes;
    }
    recs += static_cast<double>(r.n);
    fallbacks += r.fallback_taken ? 1 : 0;
    ops += static_cast<double>(r.io.total_ops());
    blocks += static_cast<double>(r.io.total_blocks());
    calls += static_cast<double>(r.io.total_calls());
  }
  const double sorts = static_cast<double>(samples.size());
  const double sort_span = std::max(1e-12, passes.sort_s);
  v["core.plan_us"] = mean_of_medians(plan);
  v["core.probe_ms"] = mean_of_medians(probe);
  v["core.pass_pred_error"] = err_w / recs;
  v["core.sort_s"] = mean_of_medians(sort);
  v["core.fallback_frac"] = fallbacks / sorts;
  for (const auto& name : pass_span_names()) {
    const auto it = passes.self_s.find(name);
    const double self = it == passes.self_s.end() ? 0.0 : it->second;
    v["primitives." + name + "_share"] = self / sort_span;
    notes.push_back("primitives." + name + "_s = " + std::to_string(self) +
                    " s of self time in " + std::to_string(passes.sort_s) +
                    " s of traced sort spans");
  }
  v["primitives.rs_vs_fixed_ns_rec"] = kc.rs_s / kc.fixed_s;
  v["internal.insort_ns_rec"] = 1e9 * kc.insort_s / kc.records;
  v["internal.loser_tree_ns_rec"] = 1e9 * kc.loser_s / kc.records;
  v["pdm.stage_s"] = mean_of_medians(stage);
  v["pdm.device_busy_s"] = dev.busy_s / sorts;
  v["pdm.device_calls"] = static_cast<double>(dev.calls) / sorts;
  v["pdm.device_mib"] = static_cast<double>(dev.bytes) / sorts / (1 << 20);
  v["pdm.parallel_ops"] = ops / sorts;
  v["pdm.blocks_per_op"] = blocks / ops;
  v["pdm.blocks_per_call"] = blocks / calls;
  v["pdm.caller_blocked_s"] = mean_of_medians(blocked);
  v["ref.std_sort_s"] = mean_of_medians(std_sort_s);
  double sort_sum = 0, std_sum = 0;
  for (usize s = 0; s < shapes; ++s) {
    sort_sum += median(sort[s]);
    std_sum += median(std_sort_s[s]);
  }
  v["ref.vs_std_sort"] = sort_sum / std_sum;
  v["trace.sort_unattributed_frac"] = 1 - passes.pass_self_s / sort_span;
  for (const auto& [algo, xs] : by_algo) {
    notes.push_back("core.sort_s." + algo + " = " + std::to_string(median(xs)) +
                    " s (median of " + std::to_string(xs.size()) + ")");
  }
  notes.push_back("run formation: fixed " + std::to_string(1e9 * kc.fixed_s / kc.records) +
                  " ns/rec, replacement selection " +
                  std::to_string(1e9 * kc.rs_s / kc.records) + " ns/rec");
}

}  // namespace perfbench
