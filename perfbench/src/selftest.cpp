// Self-test of the benchmark's own instruments. Run it with
// `python3 perfbench/run.py --self-test`; it exits non-zero on the first
// failed check.
//
//  - TimedBackend passes bytes through unchanged and counts exactly the
//    backend requests IoStats::total_calls() counts, on the sync path and
//    on the async pipeline's worker threads.
//  - The percentile helper names a percentile only when at least ten
//    samples lie beyond it.
//  - Jobs the service must refuse (mem_records = 0, a carve larger than
//    the budget) count as failed, so they show up in failed_frac.
//  - Span self time and interval-union arithmetic.
#include <cmath>
#include <cstdio>
#include <string>

#include "core/adaptive.h"
#include "harness.h"
#include "pdm/memory_backend.h"
#include "service_client.h"
#include "util/generators.h"
#include "util/rng.h"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_decorator(usize async_depth) {
  constexpr u64 kMem = 4096, kRpb = 64;
  constexpr u32 kDisks = 16;
  auto dec = std::make_unique<TimedBackend>(
      std::make_shared<pdm::MemoryDiskBackend>(kDisks, kRpb * sizeof(u64)));
  TimedBackend* timed = dec.get();
  pdm::PdmContext ctx(std::move(dec));
  ctx.set_async_depth(async_depth);
  pdm::Rng rng(7);
  const auto keys = pdm::make_keys(32 * kMem, pdm::Dist::kUniform, rng);
  auto run = pdm::write_input_run<u64>(ctx, std::span<const u64>(keys));
  const std::string tag = " (async depth " + std::to_string(async_depth) + ")";
  check(same_bytes(run.read_all(), keys),
        "decorator returns the bytes written" + tag);
  pdm::AdaptiveOptions o;
  o.mem_records = kMem;
  auto res = pdm::pdm_sort<u64>(ctx, run, o);
  auto want = keys;
  std::sort(want.begin(), want.end());
  check(same_bytes(res.output.read_all(), want),
        "sort over the decorator matches std::sort" + tag);
  ctx.aio().drain();
  const auto c = timed->counters();
  check(c.calls == ctx.stats().total_calls(),
        "decorator calls (" + std::to_string(c.calls) + ") == IoStats::total_calls (" +
            std::to_string(ctx.stats().total_calls()) + ")" + tag);
  check(c.bytes == ctx.stats().total_blocks() * kRpb * sizeof(u64),
        "decorator bytes == IoStats blocks x block size" + tag);
  check(c.busy_s > 0, "decorator measured device time" + tag);
}

void test_percentiles() {
  check(samples_beyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  check(percentile_supported(100, 0.9), "p90 named at 100 samples");
  check(!percentile_supported(99, 0.9), "p90 refused at 99 samples");
  check(percentile_supported(20, 0.5) && !percentile_supported(19, 0.5),
        "p50 needs 20 samples");
  check(!highest_supported_percentile(19).has_value(), "nothing named at 19");
  check(highest_supported_percentile(50) == 0.5, "p50 is the tail at 50");
  check(highest_supported_percentile(1000) == 0.99, "p99 is the tail at 1000");
  check(highest_supported_percentile(10000) == 0.999, "p99.9 at 10000");
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  check(quantile(xs, 0.9) == 90 && median(xs) == 50.5, "nearest-rank p90, median");
}

pdm::SortJobSpec job_spec(u64 mem_records) {
  pdm::SortJobSpec spec;
  spec.mem_records = mem_records;
  return spec;
}

void test_failed_jobs() {
  auto backend = std::make_shared<pdm::MemoryDiskBackend>(16, 64 * sizeof(u64));
  pdm::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.total_memory_bytes = usize{4} << 20;
  pdm::SortService svc(backend, cfg);
  pdm::Rng rng(3);
  const auto keys = pdm::make_keys(8 * 4096, pdm::Dist::kUniform, rng);
  auto want = keys;
  std::sort(want.begin(), want.end());
  u64 attempted = 0, failed = 0;
  auto run = [&](u64 mem_records) {
    const JobOutcome o = submit_and_wait(svc, job_spec(mem_records), keys, &want, false);
    ++attempted;
    if (!o.ok) ++failed;
    return o;
  };
  const JobOutcome good = run(4096);
  check(good.ok, "a valid job ends kDone with matching output");
  const JobOutcome zero = run(0);
  check(!zero.ok && zero.threw, "mem_records = 0 is refused (submit throws)");
  const JobOutcome huge = run(u64{1} << 24);
  check(!huge.ok && huge.info.state == pdm::JobState::kRejected,
        "a carve above the budget ends kRejected");
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  check(failed == 2 && failed_frac > 0.6 && failed_frac < 0.7,
        "refused jobs show up in failed_frac (" + std::to_string(failed_frac) + ")");
  const JobOutcome timed = submit_and_wait(svc, job_spec(4096), keys,
                                           &want, true);
  check(timed.ok && timed.worker.closure_wall >= timed.worker.callback_wall &&
            timed.worker.callback_wall > 0,
        "timed wrapper keeps the job correct and records worker times");
  std::vector<u64> wrong = want;
  wrong[0] ^= 1;
  check(!submit_and_wait(svc, job_spec(4096), keys, &wrong, false).ok,
        "an output that differs from the oracle counts as failed");
}

void test_spans() {
  using pdm::trace::TraceEvent;
  auto ev = [](const char* cat, const char* name, u64 ts, u64 dur) {
    TraceEvent e;
    e.cat = cat;
    e.name = name;
    e.ph = 'X';
    e.tid = 1;
    e.ts_ns = ts;
    e.dur_ns = dur;
    return e;
  };
  const std::vector<TraceEvent> evs = {
      ev("bench", "sort", 0, 1000),        ev("sort", "sort.X", 10, 900),
      ev("pass", "run_formation", 20, 300), ev("kernel", "k", 50, 100),
      ev("pass", "merge_pass", 400, 400),  ev("pass", "cleanup", 2000, 10)};
  const PassTimes pt = pass_times(evs);
  auto near = [](double a, double b) { return std::abs(a - b) < 1e-15; };
  check(near(pt.self_s.at("run_formation"), 200e-9), "self time subtracts children");
  check(near(pt.self_s.at("merge_pass"), 400e-9), "self time of a leaf span");
  check(pt.self_s.count("cleanup") == 0, "pass spans outside a sort are ignored");
  check(near(pt.sort_s, 900e-9), "sort span total");
  check(union_length({{0, 2}, {1, 3}, {5, 6}}) == 4, "interval union");
}

}  // namespace

int main() {
  test_decorator(0);
  test_decorator(4);
  test_percentiles();
  test_failed_jobs();
  test_spans();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "self-test passed" : "self-test FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
