// The repo benchmark program: one workload per invocation.
//
//   perfbench --workload <predict_cold|train_stream>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//             [--commit <sha>]
//
// Prints a metric table, a config record and, as the last line, the
// result JSON: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  Exits non-zero on a failed output check, and refuses to
// run when any LMMIR_* variable is set (the pipeline, the servers and
// the global pool read them, so they would change what is measured).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <predict_cold|"
               "train_stream> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--commit <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "LMMIR_", 6) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the shipped defaults\n",
                   *e);
      return 2;
    }

  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value) != 0;
      else if (key == "--out") args.out_dir = value;
      else if (key == "--commit") args.commit = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (args.seconds <= 0.0) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "predict_cold")
      perfbench::run_predict(args, report);
    else if (args.workload == "train_stream")
      perfbench::run_train(args, report);
    else
      return usage(("unknown workload '" + args.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  report.print(args);
  return report.correct() ? 0 : 1;
}
