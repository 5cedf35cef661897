// perfbench: the repository benchmark's measuring program. run.py builds
// it and calls it; see README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR] [--tiny] [--tamper]
//
// Prints a provenance line, then the result object as the last line of
// stdout. Exits 1 when a correctness check fails, 2 on a usage error.
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, Report&);
  std::string (*threads)();
};

constexpr Workload kWorkloads[] = {
    {"static-optimal", run_static_optimal, static_optimal_threads},
    {"online-seqscan", run_online_seqscan, online_seqscan_threads},
    {"sharded-drift", run_sharded_drift, sharded_drift_threads},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-dir DIR] [--tiny] [--tamper]\n";
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--tamper") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--spans-dir") a.spans_dir = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const RunArgs args = parse(argc, argv);
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    std::cout << provenance_json(args, w.threads()) << "\n";
    Report report;
    try {
      w.run(args, report);
    } catch (const std::exception& e) {
      report.check(false, std::string("exception: ") + e.what());
    }
    std::cout << report.json() << std::endl;
    return report.correct() ? 0 : 1;
  }
  usage("unknown workload '" + args.workload + "'");
}
