// service-mixed: one SortService (2 workers, every other ServiceConfig
// field at its default, so jobs are granted async depth) over one
// MemoryDiskBackend with 100 us of simulated latency per call, M = 4096.
// Four client threads run a closed loop — submit, wait, submit the next —
// over a seeded mix of job sizes: M/2 (InternalSort), 8M and 16M
// (ExpectedTwoPass) and 32M (ThreePass2(LMM)), random keys.
//
// The run is split into segments of kJobsPerSegment jobs, each on a fresh
// service and backend: a MemoryDiskBackend never reclaims the blocks a
// finished job wrote, so one long-lived service would grow by every job's
// passes. Each segment's set-up (service, backend, one warm-up job per
// size) is a setup_s sample.
#include <memory>
#include <mutex>
#include <thread>

#include "core/adaptive.h"
#include "pdm/memory_backend.h"
#include "service_client.h"
#include "util/generators.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr u64 kMem = 4096;
constexpr u64 kLatencyUs = 100;
constexpr usize kWorkers = 2;
constexpr usize kClients = 4;
constexpr usize kJobsPerSegment = 32;
constexpr usize kPayloadsPerSize = 4;
/// Tracer rings are 2 MiB per thread and are never freed, and every job
/// context starts its own async I/O workers; the traced half records spans
/// only until this many rings exist, then turns the tracer off.
constexpr usize kMaxTraceRings = 96;

const std::vector<u64>& job_sizes() {
  static const std::vector<u64> sizes = {kMem / 2, 8 * kMem, 16 * kMem,
                                         32 * kMem};
  return sizes;
}

struct Payload {
  std::vector<u64> keys;
  std::vector<u64> sorted;  // std::sort of keys: the oracle
  double std_sort_s = 0;
};

/// kPayloadsPerSize seeded payloads per job size, generated before timing;
/// jobs cycle through them.
std::vector<std::vector<Payload>> make_payloads(u64 seed) {
  std::vector<std::vector<Payload>> pool(job_sizes().size());
  for (usize s = 0; s < pool.size(); ++s) {
    for (usize k = 0; k < kPayloadsPerSize; ++k) {
      pdm::Rng rng(seed * 1000003 + s * 101 + k);
      Payload p;
      p.keys = pdm::make_keys(static_cast<usize>(job_sizes()[s]),
                              pdm::Dist::kUniform, rng);
      p.sorted = p.keys;
      const double t0 = wall_s();
      std::sort(p.sorted.begin(), p.sorted.end());
      p.std_sort_s = wall_s() - t0;
      pool[s].push_back(std::move(p));
    }
  }
  return pool;
}

/// Job-size sequence: shuffled decks holding every size twice, so each
/// segment runs the same mix in a seeded order.
std::vector<usize> job_sequence(u64 seed, usize jobs) {
  pdm::Rng rng(seed ^ 0x5eed5eedULL);
  std::vector<usize> seq;
  const usize kinds = job_sizes().size();
  while (seq.size() < jobs) {
    std::vector<usize> deck;
    for (usize s = 0; s < kinds; ++s) deck.insert(deck.end(), 2, s);
    for (usize i = deck.size() - 1; i > 0; --i) {
      std::swap(deck[i], deck[static_cast<usize>(rng.below(i + 1))]);
    }
    seq.insert(seq.end(), deck.begin(), deck.end());
  }
  seq.resize(jobs);
  return seq;
}

pdm::SortJobSpec spec_for(usize job) {
  pdm::SortJobSpec spec;
  spec.name = "job" + std::to_string(job);
  spec.mem_records = kMem;
  return spec;
}

struct JobRecord {
  usize size = 0;
  JobOutcome out;
  double plan_us = 0;  // traced: client-side replicas
  double probe_ms = 0;
  double expected_passes = 0;
};

struct Segment {
  double setup_s = 0;
  bool setup_ok = true;
  std::vector<JobRecord> jobs;
  double makespan = 0;
  double cpu_s = 0;  // process CPU over the timed loop
  pdm::ServiceStats stats;
  // Traced half.
  double helper_cpu_s = 0;  // process CPU - clients - sampler
  TimedBackend::Counters dev;
  bool calls_match = true;
  double depth_sum = 0, cpu_sum = 0, ticks = 0;
  u64 threads_peak = 0;
  std::vector<std::pair<double, double>> cover;
};

/// Whether the tracer is still recording in the traced half.
struct TraceWindow {
  std::atomic<bool> open{false};
};

Segment run_segment(const std::vector<std::vector<Payload>>& pool,
                    const std::vector<usize>& seq, u64 seed, bool traced,
                    TraceWindow* window) {
  Segment seg;
  const Geometry g = geometry(kMem);
  const double t0 = wall_s();
  auto mem = std::make_shared<pdm::MemoryDiskBackend>(g.disks, g.rpb * sizeof(u64));
  mem->set_simulated_latency_us(kLatencyUs);
  std::shared_ptr<TimedBackend> timed;
  std::shared_ptr<pdm::DiskBackend> backend = mem;
  if (traced) {
    timed = std::make_shared<TimedBackend>(mem);
    backend = timed;
  }
  pdm::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.seed = seed;
  auto svc = std::make_unique<pdm::SortService>(backend, cfg);
  for (usize s = 0; s < pool.size(); ++s) {
    const Payload& p = pool[s][0];
    seg.setup_ok = seg.setup_ok &&
                   submit_and_wait(*svc, spec_for(s), p.keys, &p.sorted, false).ok;
  }
  seg.setup_s = wall_s() - t0;

  const auto dev0 = timed ? timed->counters() : TimedBackend::Counters{};
  const pdm::IoStats io0 = svc->stats().io;
  std::atomic<usize> next{0};
  seg.jobs.resize(seq.size());
  std::vector<double> client_cpu(kClients, 0);
  std::vector<std::vector<std::pair<double, double>>> covers(kClients);
  std::mutex mu;
  std::unique_ptr<Sampler> sampler;
  if (traced) {
    auto& log = pdm::trace::TraceLog::instance();
    sampler = std::make_unique<Sampler>([&seg, &svc, &mu, window, &log] {
      const pdm::ShardLoad l = svc->load();
      if (window->open.load() && log.ring_occupancy().size() >= kMaxTraceRings) {
        log.set_enabled(false);
        window->open.store(false);
      }
      std::lock_guard lock(mu);
      seg.depth_sum += static_cast<double>(l.depth_in_use);
      seg.cpu_sum += static_cast<double>(l.cpu_in_use);
      seg.ticks += 1;
    });
  }
  const double pc0 = process_cpu_s();
  const double start = wall_s();
  std::vector<std::thread> clients;
  for (usize c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const double cc0 = thread_cpu_s();
      auto* cover = traced ? &covers[c] : nullptr;
      for (usize i; (i = next.fetch_add(1)) < seq.size();) {
        JobRecord& rec = seg.jobs[i];
        rec.size = seq[i];
        const Payload& p = pool[rec.size][i % kPayloadsPerSize];
        std::vector<u64> data = p.keys;
        if (traced) {
          // Replicas of the planner and of the in-memory presortedness
          // probe an order_adaptive job would run, timed from outside.
          BenchSpan span(cover);
          double w = wall_s();
          const auto plan = pdm::choose_plan(data.size(), kMem, g.rpb, 1.0);
          rec.plan_us = 1e6 * (wall_s() - w);
          rec.expected_passes = plan.expected_passes;
          w = wall_s();
          (void)pdm::probe_presortedness<u64>(std::span<const u64>(data), kMem);
          rec.probe_ms = 1e3 * (wall_s() - w);
        }
        BenchSpan span(cover);
        rec.out = submit_and_wait(*svc, spec_for(i), std::move(data), &p.sorted,
                                  traced);
      }
      client_cpu[c] = thread_cpu_s() - cc0;
    });
  }
  for (auto& t : clients) t.join();
  seg.makespan = wall_s() - start;
  seg.cpu_s = process_cpu_s() - pc0;
  seg.stats = svc->stats();
  if (sampler) {
    sampler->stop();
    seg.threads_peak = sampler->threads_peak();
    seg.helper_cpu_s = seg.cpu_s - sampler->cpu_s();
    for (double c : client_cpu) seg.helper_cpu_s -= c;
  }
  if (timed) {
    seg.dev = timed->counters() - dev0;
    seg.calls_match = seg.dev.calls == pdm::delta(seg.stats.io, io0).total_calls();
  }
  for (auto& cv : covers) seg.cover.insert(seg.cover.end(), cv.begin(), cv.end());
  return seg;
}

/// Segments until `seconds` have passed (at least one).
std::vector<Segment> run_phase(const std::vector<std::vector<Payload>>& pool,
                               u64 seed, double seconds, bool traced,
                               TraceWindow* window) {
  std::vector<Segment> segs;
  const double start = wall_s();
  for (usize k = 0; k == 0 || wall_s() - start < seconds; ++k) {
    const u64 s = seed * 7919 + k;
    segs.push_back(
        run_segment(pool, job_sequence(s, kJobsPerSegment), s, traced, window));
  }
  return segs;
}

std::vector<std::vector<double>> latency_by_size(const std::vector<Segment>& segs) {
  std::vector<std::vector<double>> lat(job_sizes().size());
  for (const auto& seg : segs) {
    for (const auto& j : seg.jobs) lat[j.size].push_back(j.out.latency_s());
  }
  return lat;
}

void tally(const std::vector<Segment>& segs, RunResult& rr) {
  for (const auto& seg : segs) {
    rr.measurement_ok = rr.measurement_ok && seg.setup_ok;
    for (const auto& j : seg.jobs) {
      ++rr.attempted;
      if (!j.out.ok) ++rr.failed;
    }
  }
}

void end_to_end(const std::vector<Segment>& plain, RunResult& rr) {
  std::vector<double> setups, rates, cpus;
  double pass_recs = 0, all_recs = 0, peak = 0;
  for (const auto& seg : plain) {
    setups.push_back(seg.setup_s);
    double recs = 0;
    for (const auto& j : seg.jobs) {
      const double n = static_cast<double>(j.out.info.n);
      recs += n;
      pass_recs += j.out.info.report.passes * n;
    }
    all_recs += recs;
    rates.push_back(recs / 1e6 / seg.makespan);
    cpus.push_back(seg.cpu_s / (recs / 1e6));
    peak = std::max(peak, static_cast<double>(seg.stats.peak_memory_bytes));
  }
  const auto lat = latency_by_size(plain);
  std::map<std::string, double> v;
  v["setup_s"] = median(setups);
  v["sort_mrec_per_s"] = median(rates);
  v["latency_p50_s"] = mean_of_medians(lat);
  v["latency_p90_s"] = mean_of_quantiles(lat, 0.9);
  v["passes"] = pass_recs / all_recs;
  v["cpu_s_per_mrec"] = median(cpus);
  v["peak_mem_mib"] = peak / (1 << 20);
  rr.end_to_end = ordered_metrics(end_to_end_names(), v);
  usize jobs = 0, min_per_size = ~usize{0};
  for (usize s = 0; s < lat.size(); ++s) {
    jobs += lat[s].size();
    min_per_size = std::min(min_per_size, lat[s].size());
    rr.notes.push_back("size " + std::to_string(job_sizes()[s]) + ": " +
                       std::to_string(lat[s].size()) + " jobs, latency p50 " +
                       std::to_string(median(lat[s])) + " s, p90 " +
                       std::to_string(quantile(lat[s], 0.9)) + " s");
  }
  rr.notes.push_back("samples: " + std::to_string(jobs) + " jobs in " +
                     std::to_string(plain.size()) + " segments (set-ups), " +
                     std::to_string(samples_beyond(min_per_size, 0.9)) +
                     " or more jobs beyond p90 in every size");
  rr.notes.push_back(tail_note(min_per_size));
}

}  // namespace

RunResult run_service(const RunOptions& opt) {
  RunResult rr;
  const auto pool = make_payloads(opt.seed);
  const usize nsizes = job_sizes().size();
  const double plain_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto plain = run_phase(pool, opt.seed, plain_s, false, nullptr);
  tally(plain, rr);
  if (!opt.trace) {
    end_to_end(plain, rr);
    return rr;
  }

  // Kernel arms on the largest job's payload, at the service's M.
  const Payload& largest = pool.back()[0];
  const KernelCosts kc = measure_kernels(largest.keys, largest.sorted, kMem);
  rr.measurement_ok = rr.measurement_ok && kc.ok;
  auto& log = pdm::trace::TraceLog::instance();
  TraceWindow window;
  log.clear();
  if (log.ring_occupancy().size() < kMaxTraceRings) {
    window.open.store(true);
    log.set_enabled(true);
  }
  const auto traced = run_phase(pool, opt.seed + 17, opt.seconds / 2, true, &window);
  log.set_enabled(false);
  const PassTimes pt = pass_times(log.snapshot());
  log.clear();
  tally(traced, rr);

  std::vector<LayerSample> layers;
  std::vector<std::vector<double>> queue(nsizes), run(nsizes), overhead(nsizes),
      stdsort(nsizes);
  TimedBackend::Counters dev;
  double lat_sum = 0, queue_sum = 0, overhead_sum = 0, helper = 0;
  double depth_sum = 0, cpu_sum = 0, ticks = 0, hits = 0, lookups = 0;
  double cover = 0, loop_wall = 0;
  u64 threads_peak = 0;
  for (const auto& seg : traced) {
    if (!seg.calls_match) rr.measurement_ok = false;
    dev.busy_s += seg.dev.busy_s;
    dev.calls += seg.dev.calls;
    dev.bytes += seg.dev.bytes;
    helper += seg.helper_cpu_s;
    depth_sum += seg.depth_sum;
    cpu_sum += seg.cpu_sum;
    ticks += seg.ticks;
    hits += static_cast<double>(seg.stats.plan_cache_hits);
    lookups += static_cast<double>(seg.stats.plan_cache_hits +
                                   seg.stats.plan_cache_misses);
    threads_peak = std::max(threads_peak, seg.threads_peak);
    cover += union_length(seg.cover);
    loop_wall += seg.makespan;
    for (const auto& j : seg.jobs) {
      const auto& info = j.out.info;
      const auto& w = j.out.worker;
      LayerSample ls;
      ls.shape = j.size;
      ls.report = info.report;
      ls.plan_us = j.plan_us;
      if (info.n > kMem) ls.probe_ms = j.probe_ms;
      ls.expected_passes = j.expected_passes;
      ls.sort_s = info.report.wall_seconds;
      // The job closure stages, plans, sorts and runs on_complete.
      ls.stage_s = w.closure_wall - info.report.wall_seconds - w.callback_wall;
      ls.blocked_s = (w.closure_wall - w.callback_wall) -
                     (w.closure_cpu - w.callback_cpu);
      layers.push_back(std::move(ls));
      queue[j.size].push_back(info.queue_s);
      run[j.size].push_back(info.run_s);
      overhead[j.size].push_back(info.run_s - info.report.wall_seconds);
      lat_sum += j.out.latency_s();
      queue_sum += info.queue_s;
      overhead_sum += info.run_s - info.report.wall_seconds;
    }
  }
  for (usize s = 0; s < nsizes; ++s) {
    for (const auto& p : pool[s]) stdsort[s].push_back(p.std_sort_s);
  }
  const double njobs = static_cast<double>(layers.size());
  std::map<std::string, double> v;
  add_sort_layer_metrics(layers, nsizes, stdsort, pt, kc, dev, v, rr.notes);
  v["service.queue_frac"] = queue_sum / lat_sum;
  v["service.overhead_frac"] = overhead_sum / lat_sum;
  v["service.depth_in_use_mean"] = depth_sum / std::max(1.0, ticks);
  v["service.cpu_in_use_mean"] = cpu_sum / std::max(1.0, ticks);
  v["service.plan_cache_hit_ratio"] = hits / std::max(1.0, lookups);
  v["util.helper_cpu_s"] = helper / njobs;
  v["util.threads_peak"] = static_cast<double>(threads_peak);
  v["trace_overhead_frac"] = mean_of_medians(latency_by_size(traced)) /
                                 mean_of_medians(latency_by_size(plain)) -
                             1;
  v["trace.uncovered_frac"] = 1 - cover / loop_wall;
  rr.per_layer = ordered_metrics(per_layer_names(), v);
  rr.notes.push_back("service.queue_p50_s = " + std::to_string(mean_of_medians(queue)) +
                     " s, service.run_p50_s = " + std::to_string(mean_of_medians(run)) +
                     " s, service.overhead_s = " +
                     std::to_string(mean_of_medians(overhead)) +
                     " s (means over job sizes of per-size medians)");
  rr.notes.push_back("traced jobs: " + std::to_string(layers.size()) +
                     "; pass spans come from the jobs traced before the tracer "
                     "window closed");
  return rr;
}

}  // namespace perfbench
