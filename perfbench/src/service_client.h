// One service job as a closed-loop client sees it: submit, wait, and
// check. The job's output is compared with std::sort of its input inside
// on_complete, while its output run is still alive. A job counts as
// failed when submit throws, when it does not end kDone, or when the
// check does not match; the self-test drives the same path with a job
// the service must refuse.
#pragma once

#include <memory>
#include <vector>

#include "harness.h"
#include "service/sort_service.h"

namespace perfbench {

/// Worker-side timings of one job, filled in on the service's worker
/// thread (traced half only).
struct WorkerTimes {
  double closure_wall = 0;  // the whole job closure: stage, plan, sort, callback
  double closure_cpu = 0;
  double callback_wall = 0;  // on_complete, including the output check
  double callback_cpu = 0;
};

struct JobOutcome {
  bool ok = false;
  bool threw = false;
  double submit_t = 0;  // wall_s() just before submit
  double end_t = 0;     // wall_s() when wait returned
  pdm::JobInfo info;
  WorkerTimes worker;

  double latency_s() const { return end_t - submit_t; }
};

/// Submits `data` and waits for the job. `want` is the oracle (std::sort
/// of data). With `timed` set, the job closure is wrapped to record
/// worker-thread wall and CPU time; the library's own closure from
/// SortService::prepare still does all the work.
inline JobOutcome submit_and_wait(pdm::SortService& svc, pdm::SortJobSpec spec,
                                  std::vector<u64> data,
                                  const std::vector<u64>* want, bool timed) {
  struct Shared {
    std::atomic<bool> matched{false};
    WorkerTimes worker;
  };
  auto shared = std::make_shared<Shared>();
  JobOutcome out;
  auto on_complete = [shared, want, timed](const pdm::SortResult<u64>& res) {
    const double w0 = timed ? wall_s() : 0;
    const double c0 = timed ? thread_cpu_s() : 0;
    shared->matched.store(want != nullptr &&
                          same_bytes(res.output.read_all(), *want));
    if (timed) {
      shared->worker.callback_wall = wall_s() - w0;
      shared->worker.callback_cpu = thread_cpu_s() - c0;
    }
  };
  try {
    out.submit_t = wall_s();
    pdm::JobId id = 0;
    if (!timed) {
      id = svc.submit<u64>(std::move(spec), std::move(data), std::less<u64>{},
                           on_complete);
    } else {
      auto job = pdm::SortService::prepare<u64>(
          std::move(spec), std::move(data), std::less<u64>{}, on_complete);
      job.run = [inner = std::move(job.run), shared](pdm::JobExec& ex) {
        const double w0 = wall_s();
        const double c0 = thread_cpu_s();
        inner(ex);
        shared->worker.closure_wall = wall_s() - w0;
        shared->worker.closure_cpu = thread_cpu_s() - c0;
      };
      id = svc.submit_prepared(std::move(job));
    }
    out.info = svc.wait(id);
    out.end_t = wall_s();
  } catch (const std::exception&) {
    out.threw = true;
    out.end_t = wall_s();
    return out;
  }
  out.worker = shared->worker;
  out.ok = out.info.state == pdm::JobState::kDone && shared->matched.load();
  return out;
}

}  // namespace perfbench
