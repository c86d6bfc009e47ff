// Library-path workloads: random-lib and near-sorted-lib. One caller
// thread, a MemoryDiskBackend with no latency, synchronous I/O and a CPU
// budget of 1 — the defaults of a freshly built context. Every sort gets
// a fresh input and a fresh context (a MemoryDiskBackend never reclaims
// written blocks, so a reused one would grow by every sort's passes), and
// its output is compared byte for byte with std::sort of the same input.
#include <memory>

#include "core/adaptive.h"
#include "pdm/memory_backend.h"
#include "util/generators.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pdm::Dist;
using pdm::PdmContext;

struct Shape {
  u64 n;
  u64 mem;
  Dist dist;
};

struct LibWorkload {
  std::vector<Shape> shapes;
  bool probe;
};

LibWorkload library_workload(const std::string& name) {
  constexpr u64 K = 1024;
  if (name == "random-lib") {
    return {{{2048 * K, 65536, Dist::kPermutation},
             {1024 * K, 16384, Dist::kPermutation}},
            false};
  }
  return {{{512 * K, 16384, Dist::kNearSortedDisplaced},
           {1024 * K, 16384, Dist::kNearSortedDisplaced},
           {1024 * K, 16384, Dist::kClustered},
           {1024 * K, 16384, Dist::kNearlySorted}},
          true};
}

/// Set-ups per run; setup_s is their median.
constexpr usize kSetups = 5;

/// Input streams: the plain half, the traced half, the set-ups and the
/// kernel arms each draw from their own range.
constexpr u64 kStreamsPerPhase = u64{1} << 32;

struct Input {
  std::vector<u64> keys;
  std::vector<u64> sorted;  // std::sort of keys: the oracle
  double std_sort_s = 0;
};

/// One input, generated from (seed, stream) before its sort is timed, with
/// its std::sort reference (also the ref.std_sort_s sample).
Input make_input(const Shape& sh, u64 seed, u64 stream) {
  pdm::Rng rng(seed * 1000003 + stream);
  Input in;
  in.keys = pdm::make_keys(static_cast<usize>(sh.n), sh.dist, rng);
  in.sorted = in.keys;
  const double t0 = wall_s();
  std::sort(in.sorted.begin(), in.sorted.end());
  in.std_sort_s = wall_s() - t0;
  return in;
}

/// A fresh machine for one sort; `timed` receives the decorator when the
/// context is built over one (traced half).
std::unique_ptr<PdmContext> make_context(const Shape& sh, u64 seed,
                                         TimedBackend** timed) {
  const Geometry g = geometry(sh.mem);
  const usize bb = g.rpb * sizeof(u64);
  if (timed == nullptr) return pdm::make_memory_context(g.disks, bb, seed);
  auto dec = std::make_unique<TimedBackend>(
      std::make_shared<pdm::MemoryDiskBackend>(g.disks, bb));
  *timed = dec.get();
  return std::make_unique<PdmContext>(std::move(dec), pdm::CostModel{}, seed);
}

struct SortSample {
  bool ok = false;
  double cpu_s = 0;  // process CPU over stage + sort
  LayerSample layer;
  // Traced half only.
  TimedBackend::Counters dev;
  bool calls_match = true;

  double latency_s() const { return layer.stage_s + layer.sort_s; }
};

/// Traced-half state: the attribution cover and the pass-span totals.
struct Tracing {
  std::vector<std::pair<double, double>> cover;
  PassTimes passes;
};

SortSample sort_once(const Shape& sh, usize shape_idx, const Input& in,
                     bool probe, u64 seed, Tracing* tr) {
  SortSample smp;
  smp.layer.shape = shape_idx;
  auto* cover = tr != nullptr ? &tr->cover : nullptr;
  TimedBackend* timed = nullptr;
  std::unique_ptr<PdmContext> ctx;
  {
    BenchSpan span(cover);
    ctx = make_context(sh, seed, tr != nullptr ? &timed : nullptr);
  }
  try {
    pdm::AdaptiveOptions o;
    o.mem_records = sh.mem;
    o.probe = probe;
    const double c0 = process_cpu_s();
    const double t0 = wall_s();
    std::optional<pdm::StripedRun<u64>> run;
    {
      BenchSpan span(cover);
      run.emplace(pdm::write_input_run<u64>(*ctx, std::span<const u64>(in.keys)));
    }
    const double t1 = wall_s();
    const double c1 = process_cpu_s();
    if (tr != nullptr) {
      // Replicas, from outside, of the probe and plan calls pdm_sort makes
      // inside; their time is not part of the latency.
      u64 est_runs = 0;
      {
        BenchSpan span(cover);
        const double p0 = wall_s();
        const auto pr = pdm::probe_presortedness<u64>(*ctx, *run, sh.mem);
        smp.layer.probe_ms = 1e3 * (wall_s() - p0);
        if (probe) est_runs = pr.est_runs;
      }
      BenchSpan span(cover);
      const double p0 = wall_s();
      const auto plan =
          pdm::choose_plan(sh.n, sh.mem, ctx->rpb<u64>(), o.alpha, est_runs);
      smp.layer.plan_us = 1e6 * (wall_s() - p0);
      smp.layer.expected_passes = plan.expected_passes;
    }
    const pdm::IoStats io0 = ctx->stats();
    const auto dev0 = timed != nullptr ? timed->counters() : TimedBackend::Counters{};
    const double c2 = process_cpu_s();
    const double tc0 = thread_cpu_s();
    const double t2 = wall_s();
    std::optional<pdm::SortResult<u64>> res;
    {
      BenchSpan span(cover);
      res.emplace(pdm::pdm_sort<u64>(*ctx, *run, o));
    }
    const double t3 = wall_s();
    const double tc1 = thread_cpu_s();
    const double c3 = process_cpu_s();
    smp.layer.stage_s = t1 - t0;
    smp.layer.sort_s = t3 - t2;
    smp.layer.blocked_s = (t3 - t2) - (tc1 - tc0);
    smp.layer.report = res->report;
    smp.cpu_s = (c1 - c0) + (c3 - c2);
    if (timed != nullptr) {
      smp.dev = timed->counters() - dev0;
      smp.calls_match =
          smp.dev.calls == pdm::delta(ctx->stats(), io0).total_calls();
    }
    BenchSpan span(cover);
    smp.ok = same_bytes(res->output.read_all(), in.sorted);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sort failed: %s\n", e.what());
    smp.ok = false;
  }
  BenchSpan span(cover);
  ctx.reset();
  return smp;
}

/// One measured phase: whole rounds (one sort per shape) until `seconds`.
struct Phase {
  std::vector<SortSample> samples;
  std::vector<double> round_rate;  // Mrec/s per round
  std::vector<double> round_cpu;   // s/Mrec per round
  std::vector<std::vector<double>> std_sort_s;  // per shape
  double wall = 0;
  double helper_cpu_s = 0;  // traced: process CPU - this thread's CPU

  std::vector<std::vector<double>> latency_by_shape() const {
    std::vector<std::vector<double>> lat(std_sort_s.size());
    for (const auto& s : samples) lat[s.layer.shape].push_back(s.latency_s());
    return lat;
  }
};

Phase run_phase(const LibWorkload& w, double seconds, u64 seed, u64 stream0,
                Tracing* tr) {
  Phase ph;
  const usize ns = w.shapes.size();
  ph.std_sort_s.resize(ns);
  const double start = wall_s();
  const double pc0 = process_cpu_s();
  const double tc0 = thread_cpu_s();
  for (usize round = 0; round == 0 || wall_s() - start < seconds; ++round) {
    double recs = 0, lat = 0, cpu = 0;
    for (usize s = 0; s < ns; ++s) {
      Input in;
      {
        BenchSpan span(tr != nullptr ? &tr->cover : nullptr);
        in = make_input(w.shapes[s], seed, stream0 + round * ns + s);
      }
      ph.std_sort_s[s].push_back(in.std_sort_s);
      SortSample smp =
          sort_once(w.shapes[s], s, in, w.probe, seed + round * 31 + s, tr);
      if (tr != nullptr) {
        BenchSpan span(&tr->cover);
        tr->passes.add(pass_times(pdm::trace::TraceLog::instance().snapshot()));
        pdm::trace::TraceLog::instance().clear();
      }
      recs += static_cast<double>(w.shapes[s].n);
      lat += smp.latency_s();
      cpu += smp.cpu_s;
      ph.samples.push_back(std::move(smp));
    }
    ph.round_rate.push_back(recs / 1e6 / lat);
    ph.round_cpu.push_back(cpu / (recs / 1e6));
  }
  ph.wall = wall_s() - start;
  ph.helper_cpu_s = (process_cpu_s() - pc0) - (thread_cpu_s() - tc0);
  return ph;
}

void end_to_end(const LibWorkload& w, const Phase& plain,
                const std::vector<double>& setups, RunResult& rr) {
  const usize ns = w.shapes.size();
  const auto lat = plain.latency_by_shape();
  double pass_recs = 0, recs = 0, peak = 0;
  for (const auto& s : plain.samples) {
    const auto& r = s.layer.report;
    pass_recs += r.passes * static_cast<double>(r.n);
    recs += static_cast<double>(r.n);
    peak = std::max(peak, static_cast<double>(r.peak_memory_bytes));
  }
  std::map<std::string, double> v;
  v["setup_s"] = median(setups);
  v["sort_mrec_per_s"] = median(plain.round_rate);
  v["latency_p50_s"] = mean_of_medians(lat);
  v["latency_p90_s"] = mean_of_quantiles(lat, 0.9);
  v["passes"] = pass_recs / recs;
  v["cpu_s_per_mrec"] = median(plain.round_cpu);
  v["peak_mem_mib"] = peak / (1 << 20);
  rr.end_to_end = ordered_metrics(end_to_end_names(), v);
  for (usize s = 0; s < ns; ++s) {
    const auto& sh = w.shapes[s];
    const auto& r = plain.samples[s].layer.report;  // round 0
    rr.notes.push_back("shape " + std::to_string(s) + ": N=" + std::to_string(sh.n) +
                       " M=" + std::to_string(sh.mem) + " " + pdm::dist_name(sh.dist) +
                       " -> " + r.algorithm + ", " + std::to_string(r.passes) +
                       " passes, latency p50 " + std::to_string(median(lat[s])) + " s");
  }
  const usize per_shape = plain.samples.size() / ns;
  rr.notes.push_back("samples: " + std::to_string(plain.samples.size()) +
                     " sorts (" + std::to_string(per_shape) + " per shape), " +
                     std::to_string(plain.round_rate.size()) + " rounds, " +
                     std::to_string(setups.size()) + " set-ups");
  rr.notes.push_back(tail_note(per_shape));
}

}  // namespace

RunResult run_library(const RunOptions& opt) {
  const LibWorkload w = library_workload(opt.workload);
  const usize ns = w.shapes.size();
  RunResult rr;

  // Set-up: build a context and run one untimed warm-up sort per shape,
  // kSetups times; setup_s is the median.
  std::vector<double> setups;
  for (usize r = 0; r < kSetups; ++r) {
    std::vector<Input> inputs;
    for (usize s = 0; s < ns; ++s) {
      inputs.push_back(
          make_input(w.shapes[s], opt.seed, 2 * kStreamsPerPhase + r * ns + s));
    }
    const double t0 = wall_s();
    for (usize s = 0; s < ns; ++s) {
      const SortSample smp =
          sort_once(w.shapes[s], s, inputs[s], w.probe, opt.seed + 7 * r, nullptr);
      rr.measurement_ok = rr.measurement_ok && smp.ok;
    }
    setups.push_back(wall_s() - t0);
  }

  const double plain_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase plain = run_phase(w, plain_s, opt.seed, 0, nullptr);
  for (const auto& s : plain.samples) {
    ++rr.attempted;
    if (!s.ok) ++rr.failed;
  }
  if (!opt.trace) {
    end_to_end(w, plain, setups, rr);
    return rr;
  }

  // Traced half: decorator, tracer, sampler and the outside replicas.
  KernelCosts kc;
  for (usize s = 0; s < ns; ++s) {
    const Input in = make_input(w.shapes[s], opt.seed, 3 * kStreamsPerPhase + s);
    kc.add(measure_kernels(in.keys, in.sorted, w.shapes[s].mem));
  }
  rr.measurement_ok = rr.measurement_ok && kc.ok;
  Tracing tr;
  auto& log = pdm::trace::TraceLog::instance();
  log.clear();
  log.set_enabled(true);
  Sampler sampler({});
  Phase traced = run_phase(w, opt.seconds / 2, opt.seed, kStreamsPerPhase, &tr);
  sampler.stop();
  log.set_enabled(false);
  log.clear();

  std::vector<LayerSample> layers;
  TimedBackend::Counters dev;
  for (const auto& s : traced.samples) {
    ++rr.attempted;
    if (!s.ok) ++rr.failed;
    if (!s.calls_match) rr.measurement_ok = false;
    layers.push_back(s.layer);
    dev.busy_s += s.dev.busy_s;
    dev.calls += s.dev.calls;
    dev.bytes += s.dev.bytes;
  }
  const double sorts = static_cast<double>(traced.samples.size());
  std::map<std::string, double> v;
  add_sort_layer_metrics(layers, ns, traced.std_sort_s, tr.passes, kc, dev, v,
                         rr.notes);
  for (const char* k : {"service.queue_frac", "service.overhead_frac",
                        "service.depth_in_use_mean", "service.cpu_in_use_mean",
                        "service.plan_cache_hit_ratio"}) {
    v[k] = 0;
  }
  rr.notes.push_back("service.*: n/a on a library workload (no service); reported as 0");
  v["util.helper_cpu_s"] = (traced.helper_cpu_s - sampler.cpu_s()) / sorts;
  v["util.threads_peak"] = static_cast<double>(sampler.threads_peak());
  v["trace_overhead_frac"] = mean_of_medians(traced.latency_by_shape()) /
                                 mean_of_medians(plain.latency_by_shape()) -
                             1;
  v["trace.uncovered_frac"] = 1 - union_length(tr.cover) / traced.wall;
  rr.per_layer = ordered_metrics(per_layer_names(), v);
  rr.notes.push_back("traced sorts: " + std::to_string(traced.samples.size()) +
                     ", plain sorts: " + std::to_string(plain.samples.size()));
  return rr;
}

}  // namespace perfbench
