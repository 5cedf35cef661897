// Theorem 13: k-ary SplayNet serves sigma with cost O(sum_x a_x log(m/a_x)
// + b_x log(m/b_x)) — the endpoint-entropy bound inherited from SplayNet.
// This bench measures the hidden constant: total measured cost divided by
// the entropy expression, across workloads and arities. The theorem holds
// iff the ratio stays bounded by a small constant independent of the
// workload; skewed traces (small entropy) are the stress case.
#include <iostream>

#include "bench_common.hpp"
#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  san::bench::init_bench_cli(argc, argv);
  using namespace san;
  const std::size_t m = bench::scaled<std::size_t>(5000, 200000, 1000000);
  std::cout << "== Theorem 13: measured cost vs entropy upper bound ==\n";
  std::cout << "cells: total(routing+rotations) / (sum_x a_x lg(m/a_x) + "
               "b_x lg(m/b_x)); bounded => theorem\n\n";

  Table out({"workload", "n", "bound (bits)", "k=2", "k=3", "k=5", "k=8"});
  double max_ratio = 0.0;
  for (auto kind :
       {WorkloadKind::kUniform, WorkloadKind::kHpc, WorkloadKind::kProjector,
        WorkloadKind::kFacebook, WorkloadKind::kTemporal025,
        WorkloadKind::kTemporal09}) {
    const int n =
        kind == WorkloadKind::kFacebook ? 2000 : bench::node_count(kind);
    Trace trace = gen_workload(kind, n, m, bench::bench_seed());
    const TraceStats st = compute_stats(trace);
    std::vector<std::string> row = {workload_name(kind), std::to_string(n),
                                    fixed_cell(st.entropy_bound, 0)};
    for (int k : {2, 3, 5, 8}) {
      KArySplayNet net = KArySplayNet::balanced(k, n);
      const SimResult res = run_trace(net, trace);
      const double ratio =
          static_cast<double>(res.total_cost()) / st.entropy_bound;
      max_ratio = std::max(max_ratio, ratio);
      row.push_back(fixed_cell(ratio, 3));
    }
    out.add_row(row);
  }
  out.print();
  std::cout << "\nmax constant observed: " << fixed_cell(max_ratio, 3)
            << " (Theorem 13 asserts O(1); higher k should not raise it)\n";
  return 0;
}
