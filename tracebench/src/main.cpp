// The benchmark binary. Usage:
//
//   tracebench --workload state_trace|trace_flood|host_fleet --seed N
//              --seconds S --trace 0|1 --run-dir DIR [--spans-out FILE]
//
// Prints progress lines, then one JSON result object as the last line of
// standard output. Exits non-zero without a result when a run cannot
// produce its full metric set.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "tracebench: %s\nusage: tracebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --run-dir DIR [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tracebench::RunOptions opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      opt.traced = std::strcmp(value, "1") == 0;
      have_trace = opt.traced || std::strcmp(value, "0") == 0;
    } else if (key == "--run-dir") {
      opt.run_dir = value;
    } else if (key == "--spans-out") {
      opt.spans_out = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!have_seed || !have_seconds || !have_trace || opt.run_dir.empty()) {
    return usage("--seed, --seconds, --trace and --run-dir are required");
  }

  using Runner = tracebench::Outcome (*)(const tracebench::Fixture&,
                                         const tracebench::RunOptions&);
  Runner run = nullptr;
  if (workload == "state_trace") run = tracebench::run_state_trace;
  if (workload == "trace_flood") run = tracebench::run_trace_flood;
  if (workload == "host_fleet") run = tracebench::run_host_fleet;
  if (run == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  const std::int64_t k0 = tracebench::now_ns();
  const tracebench::Fixture fixture;
  std::printf("fixture keys: %.3f s (untimed)\n",
              static_cast<double>(tracebench::now_ns() - k0) / 1e9);
  std::fflush(stdout);

  tracebench::Outcome out = run(fixture, opt);
  for (const std::string& g : out.gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", g.c_str());
  }
  const auto missing = out.report.missing();
  if (!missing.empty()) {
    std::fprintf(stderr, "tracebench: run produced no value for %zu metrics (first: %s)\n",
                 missing.size(), missing.front().c_str());
    return 3;
  }
  std::printf("%s\n", out.report
                          .json(out.gate_failures.empty(), out.attempted,
                                out.failed)
                          .c_str());
  return 0;
}
