// Ablation of three design choices of the rotation engine:
//   1. case preference (the paper's k-splay case 1/2 distinction plus the
//      disjointness constraint behind the access-lemma argument) — turning
//      it off must visibly degrade balance;
//   2. block placement (centered / leftmost / rightmost) — second-order;
//   3. block sizing (balanced vs paper-literal greedy) — identical under
//      the saturation invariant (every node holds k-1 keys, so the sizes
//      are forced), shown here as evidence, not assumption.
#include <iostream>

#include "bench_common.hpp"
#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

namespace {

using namespace san;

struct Variant {
  const char* name;
  RotationPolicy policy;
};

double run(const Variant& v, int k, const Trace& trace, double* avg_depth) {
  KArySplayNet net = KArySplayNet::balanced(k, trace.n, v.policy);
  Cost total = 0;
  for (const Request& r : trace.requests) {
    const ServeResult s = net.serve(r.src, r.dst);
    total += s.routing_cost + s.rotations;
  }
  double depth = 0;
  for (NodeId id = 1; id <= trace.n; ++id) depth += net.tree().depth(id);
  *avg_depth = depth / trace.n;
  return static_cast<double>(total) / static_cast<double>(trace.size());
}

}  // namespace

int main(int argc, char** argv) {
  san::bench::init_bench_cli(argc, argv);
  const int n = 512;
  const std::size_t m = san::bench::scaled<std::size_t>(5000, 100000, 400000);
  std::cout << "== Rotation-policy ablation (n=" << n << ", " << m
            << " temporal-0.5 requests) ==\n\n";
  san::Trace trace = san::gen_temporal(n, m, 0.5, 9);

  const Variant variants[] = {
      {"default (balanced, centered, case-pref)", {}},
      {"greedy-max sizing",
       {san::BlockSizing::kGreedyMax, san::BlockPlacement::kCentered, true}},
      {"leftmost placement",
       {san::BlockSizing::kBalanced, san::BlockPlacement::kLeftmost, true}},
      {"rightmost placement",
       {san::BlockSizing::kBalanced, san::BlockPlacement::kRightmost, true}},
      {"NO case preference",
       {san::BlockSizing::kBalanced, san::BlockPlacement::kCentered, false}},
  };

  san::Table out({"variant", "k=2 cost/req", "k=2 depth", "k=4 cost/req",
                  "k=4 depth", "k=8 cost/req", "k=8 depth"});
  for (const Variant& v : variants) {
    std::vector<std::string> row = {v.name};
    for (int k : {2, 4, 8}) {
      double depth = 0;
      const double cost = run(v, k, trace, &depth);
      row.push_back(san::fixed_cell(cost, 2));
      row.push_back(san::fixed_cell(depth, 1));
    }
    out.add_row(row);
  }
  out.print();
  std::cout << "\nexpected: greedy == balanced under saturation; placement "
               "second-order; disabling case preference inflates depth.\n";
  return 0;
}
