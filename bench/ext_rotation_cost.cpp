// Extension experiment: sensitivity to the reconfiguration price. The
// evaluation sets rotation cost = 1 (Section 5, following the matching-
// model convention [12]); real optical switches make reconfiguration
// slower than forwarding. This bench re-prices the same runs as
// total = routing + rho * rotations for rho in {0, 0.5, 1, 2, 5, 10} and
// reports, per workload, the largest rho at which the 4-ary SplayNet still
// beats the static full 4-ary tree — the break-even reconfiguration price.
#include <iostream>

#include "bench_common.hpp"
#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  san::bench::init_bench_cli(argc, argv);
  using namespace san;
  const int k = 4;
  const int n = 500;
  const std::size_t m = bench::scaled<std::size_t>(5000, 200000, 1000000);
  const double rhos[] = {0.0, 0.5, 1.0, 2.0, 5.0, 10.0};

  std::cout << "== Extension: break-even rotation cost (k=" << k
            << ", n=" << n << ", " << m << " requests) ==\n";
  std::cout << "cells: (routing + rho*rotations) / static-full-tree cost; "
               "<1 means self-adjusting wins\n\n";

  std::vector<std::string> header = {"workload"};
  for (double rho : rhos) header.push_back("rho=" + fixed_cell(rho, 1));
  header.push_back("break-even rho");
  Table out(header);

  for (auto kind :
       {WorkloadKind::kUniform, WorkloadKind::kHpc, WorkloadKind::kProjector,
        WorkloadKind::kTemporal025, WorkloadKind::kTemporal05,
        WorkloadKind::kTemporal075, WorkloadKind::kTemporal09}) {
    Trace trace = gen_workload(kind, n, m, bench::bench_seed());
    KArySplayNet splay = KArySplayNet::balanced(k, n);
    const SimResult online = run_trace(splay, trace);
    const Cost static_cost =
        run_trace_static(full_kary_tree(k, n), trace).routing_cost;

    std::vector<std::string> row = {workload_name(kind)};
    double break_even = -1.0;
    for (double rho : rhos) {
      const double total = static_cast<double>(online.routing_cost) +
                           rho * static_cast<double>(online.rotation_count);
      const double ratio = total / static_cast<double>(static_cost);
      if (ratio < 1.0) break_even = rho;
      row.push_back(fixed_cell(ratio, 2));
    }
    // Exact break-even from the linear model.
    const double exact =
        (static_cast<double>(static_cost) -
         static_cast<double>(online.routing_cost)) /
        static_cast<double>(online.rotation_count);
    row.push_back(exact < 0 ? "never" : fixed_cell(exact, 2));
    (void)break_even;
    out.add_row(row);
  }
  out.print();
  std::cout << "\nHigh-locality workloads tolerate expensive "
               "reconfiguration; low-locality ones\nneed rotations to be "
               "nearly free — quantifying the Section 5 assumption.\n";
  return 0;
}
