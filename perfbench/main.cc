// roadbench: the roadmine benchmark binary.
//
//   roadbench --workload <study|network_build|network_rank> --seed <n>
//             --seconds <s> --trace <0|1> [--work <dir>]
//   roadbench --selftest [--work <dir>]
//
// Generates its inputs from the seed under <dir> (default .bench_work),
// measures the workload for about <s> seconds, checks every output, and
// prints one JSON result as its last line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// check failed. perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: roadbench --workload <study|network_build|network_rank>"
               " --seed <n> --seconds <s> --trace <0|1> [--work <dir>]\n"
               "       roadbench --selftest [--work <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  roadbench::RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) return roadbench::RunSelfTest(options);
  if (options.seconds <= 0.0) return Usage();
  if (options.workload == "study") return roadbench::RunStudy(options);
  if (options.workload == "network_build") {
    return roadbench::RunNetworkBuild(options);
  }
  if (options.workload == "network_rank") {
    return roadbench::RunNetworkRank(options);
  }
  return Usage();
}
