// The three benchmark workloads. Each one generates its inputs from the
// seed, sets up (repeatedly; setup_s is the fastest), measures for the
// run's seconds, checks its outputs, and fills the report: end-to-end
// metrics in a plain run, per-layer metrics in a traced run.
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// Threads the workload runs on, for the provenance line.
std::string static_optimal_threads();
std::string online_seqscan_threads();
std::string sharded_drift_threads();

void run_static_optimal(const RunArgs& args, Report& report);
void run_online_seqscan(const RunArgs& args, Report& report);
void run_sharded_drift(const RunArgs& args, Report& report);

}  // namespace perfbench
