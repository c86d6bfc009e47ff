// pdmsort repository benchmark.
//
//   pdmbench --workload <random-lib|near-sorted-lib|service-mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Prints one line per metric (name, value, unit) and, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones. Exits 1 when any output did not
// match std::sort of its input or a measurement cross-check failed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

std::vector<Metric> ordered_metrics(
    const std::vector<std::pair<std::string, std::string>>& names,
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    if (it == values.end()) {
      throw std::logic_error("benchmark bug: metric " + name + " not measured");
    }
    out.push_back({name, it->second, unit});
  }
  return out;
}

}  // namespace perfbench

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload <random-lib|near-sorted-lib|service-mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0) return usage(argv[0]);
  RunResult rr;
  try {
    if (opt.workload == "random-lib" || opt.workload == "near-sorted-lib") {
      rr = run_library(opt);
    } else if (opt.workload == "service-mixed") {
      rr = run_service(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  std::printf("workload %s, seed %llu, %g s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const auto& n : rr.notes) std::printf("  %s\n", n.c_str());
  const auto& metrics = opt.trace ? rr.per_layer : rr.end_to_end;
  for (const auto& m : metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::printf("  %s is not a finite number\n", m.name.c_str());
      rr.measurement_ok = false;
    }
  }
  const double failed_frac =
      rr.attempted == 0 ? 1.0
                        : static_cast<double>(rr.failed) /
                              static_cast<double>(rr.attempted);
  std::printf("%-40s %14.6g %s\n", "failed_frac", failed_frac, "ratio");
  if (!rr.measurement_ok) {
    std::printf("measurement cross-check failed (see notes above)\n");
  }
  const bool correct = rr.failed == 0 && rr.attempted > 0 && rr.measurement_ok;
  print_result(correct, rr.attempted, rr.failed, metrics);
  return correct ? 0 : 1;
}
