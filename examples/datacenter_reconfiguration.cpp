// Datacenter scenario: a rack-level reconfigurable interconnect serving
// shifting tenant traffic.
//
// Models the motivating setting of the paper's introduction: an optical-
// switch topology over top-of-rack nodes where the traffic mix changes over
// time (an HPC tenant phase, then a skewed service-mesh phase, then an
// all-to-all shuffle). Compares, on one continuous trace:
//   * k-ary SplayNet (fully reactive self-adjustment),
//   * (k+1)-SplayNet (the centroid heuristic),
//   * the static full k-ary tree (demand-oblivious), and
//   * a static demand-aware tree computed with hindsight over the whole
//     trace (the offline O(n^3 k) DP) — an unrealizable lower reference.
//
//   $ ./datacenter_reconfiguration [k] [n] [requests-per-phase]
#include <cstdlib>
#include <iostream>

#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "stats/table.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 3;
  const int n = argc > 2 ? std::atoi(argv[2]) : 250;
  const std::size_t per_phase =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 60000;

  std::cout << "Reconfigurable datacenter interconnect: " << n
            << " racks, arity " << k << ", three traffic phases x "
            << per_phase << " requests\n\n";

  // Phase 1: HPC tenant (structured, id-local). Phase 2: service mesh
  // (sparse skewed elephants). Phase 3: shuffle (uniform all-to-all).
  san::Trace trace;
  trace.n = n;
  for (auto kind : {san::WorkloadKind::kHpc, san::WorkloadKind::kProjector,
                    san::WorkloadKind::kUniform}) {
    san::Trace phase = san::gen_workload(kind, n, per_phase, 11);
    trace.requests.insert(trace.requests.end(), phase.requests.begin(),
                          phase.requests.end());
  }

  san::KArySplayNet splay = san::KArySplayNet::balanced(k, n);
  san::CentroidSplayNet centroid(k, n);
  san::SimResult splay_res = san::run_trace(splay, trace);
  san::SimResult cent_res = san::run_trace(centroid, trace);

  san::SimResult full_res =
      san::run_trace_static(san::full_kary_tree(k, n), trace);

  san::DemandMatrix demand = san::DemandMatrix::from_trace(trace);
  san::OptimalTreeResult opt = san::optimal_routing_based_tree(k, demand, 0);
  san::SimResult opt_res = san::run_trace_static(opt.tree, trace);

  san::Table out({"topology", "routing/req", "rotations/req", "total/req"});
  auto add = [&](const std::string& name, const san::SimResult& r) {
    out.add_row({name, san::fixed_cell(r.avg_routing_cost()),
                 san::fixed_cell(static_cast<double>(r.rotation_count) /
                                 static_cast<double>(r.requests)),
                 san::fixed_cell(r.avg_request_cost())});
  };
  add(std::to_string(k) + "-ary SplayNet (online)", splay_res);
  add(std::to_string(k + 1) + "-SplayNet (centroid, online)", cent_res);
  add("full " + std::to_string(k) + "-ary tree (static)", full_res);
  add("offline optimal tree (hindsight)", opt_res);
  out.print();

  std::cout << "\nThe online networks adapt across phase changes without "
               "global recomputation;\nthe hindsight-optimal static tree "
               "shows how much a single topology could ever get\nfrom this "
               "mixed demand.\n";
  return 0;
}
