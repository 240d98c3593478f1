// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <replay_core|serve_churn>
//             --seed <n> --seconds <s> [--trace 0|1]
//             [--setup-repeats <k>] [--tmpdir <dir>]
//
// Prints one JSON line: the run's checks, counts and metrics, each metric
// with its unit and an interval [lo, hi] around its point. perfbench/run.py
// builds this binary, runs it and turns the line into the benchmark's
// result. Exit status: 0 when every check passed, 1 otherwise, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<replay_core|serve_churn> --seed <n> "
               "--seconds <s> [--trace 0|1] [--setup-repeats <k>] "
               "[--tmpdir <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--setup-repeats") {
      args.setup_repeats = std::atoi(value);
    } else if (flag == "--tmpdir") {
      args.tmpdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0) || args.setup_repeats < 1) {
    return usage("--seconds and --setup-repeats must be positive");
  }

  perfbench::Result res;
  if (args.workload == "replay_core") {
    res = perfbench::run_replay_core(args);
  } else if (args.workload == "serve_churn") {
    res = perfbench::run_serve_churn(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  res.check_intervals();
  res.print();
  return res.correct() ? 0 : 1;
}
