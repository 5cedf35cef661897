// Lazy (partially reactive) self-adjustment: the meta-algorithm the paper's
// related-work section describes (Feder et al., INFOCOM 2022 model): keep a
// *static* demand-aware topology, accumulate routing cost, and once the
// cost since the last reconfiguration exceeds a threshold alpha, recompute
// the optimal static tree from the recent demand window and swap it in,
// paying the number of changed links.
//
// Compares, on a drifting workload (hot communication cluster moves over
// time), three operating points:
//   * fully reactive k-ary SplayNet (adjusts every request),
//   * lazy rebuilds at several alpha thresholds,
//   * one static demand-oblivious full tree.
//
//   $ ./lazy_rebuild [k] [n] [requests]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <random>

#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "stats/table.hpp"
#include "workload/demand_matrix.hpp"

namespace {

using namespace san;

// Drifting hot-cluster workload: at any time a window of ~16 ids carries
// 90% of the traffic; the window glides across the id space.
Trace drifting_trace(int n, std::size_t m, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Trace t;
  t.n = n;
  t.requests.reserve(m);
  const int width = 16;
  for (std::size_t i = 0; i < m; ++i) {
    const int base =
        static_cast<int>((i * (n - width)) / m);  // glides 0 .. n-width
    NodeId u, v;
    if (coin(rng) < 0.9) {
      u = static_cast<NodeId>(1 + base + rng() % width);
      v = static_cast<NodeId>(1 + base + rng() % width);
    } else {
      u = static_cast<NodeId>(1 + rng() % n);
      v = static_cast<NodeId>(1 + rng() % n);
    }
    if (u == v) v = (v % n) + 1;
    t.requests.push_back({u, v});
  }
  return t;
}

// Number of links present in one tree but not the other (the swap cost of
// a full reconfiguration under the Section 2 model).
Cost edge_diff(const KAryTree& a, const KAryTree& b) {
  auto edges = [](const KAryTree& t) {
    std::vector<std::pair<NodeId, NodeId>> e;
    for (NodeId id = 1; id <= t.size(); ++id) {
      NodeId p = t.node(id).parent;
      if (p != kNoNode) e.push_back({std::min(id, p), std::max(id, p)});
    }
    std::sort(e.begin(), e.end());
    return e;
  };
  auto ea = edges(a);
  auto eb = edges(b);
  std::vector<std::pair<NodeId, NodeId>> diff;
  std::set_symmetric_difference(ea.begin(), ea.end(), eb.begin(), eb.end(),
                                std::back_inserter(diff));
  return static_cast<Cost>(diff.size());
}

struct LazyResult {
  Cost routing = 0;
  Cost reconfig = 0;
  int rebuilds = 0;
};

LazyResult run_lazy(int k, const Trace& trace, Cost alpha) {
  const int n = trace.n;
  LazyResult res;
  KAryTree current = full_kary_tree(k, n);
  DemandMatrix window(n);
  Cost since_rebuild = 0;
  for (const Request& r : trace.requests) {
    const Cost c = current.distance(r.src, r.dst);
    res.routing += c;
    since_rebuild += c;
    window.add(r.src, r.dst);
    if (since_rebuild >= alpha) {
      KAryTree next = optimal_routing_based_tree(k, window, 0).tree;
      res.reconfig += edge_diff(current, next);
      current = std::move(next);
      window = DemandMatrix(n);  // fresh demand window
      since_rebuild = 0;
      ++res.rebuilds;
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 3;
  const int n = argc > 2 ? std::atoi(argv[2]) : 128;
  const std::size_t m = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 80000;

  std::cout << "Lazy self-adjusting network (threshold rebuilds) on a "
               "drifting hot-cluster workload\n"
            << "k=" << k << ", n=" << n << ", m=" << m << "\n\n";
  Trace trace = drifting_trace(n, m, 5);

  Table out({"strategy", "routing/req", "adjust/req", "total/req",
             "rebuilds"});

  KArySplayNet reactive = KArySplayNet::balanced(k, n);
  SimResult splay = run_trace(reactive, trace);
  out.add_row({"k-ary SplayNet (reactive)", fixed_cell(splay.avg_routing_cost()),
               fixed_cell(static_cast<double>(splay.rotation_count) / m),
               fixed_cell(splay.avg_request_cost()), "-"});

  for (Cost alpha : {Cost{2000}, Cost{20000}, Cost{200000}}) {
    LazyResult lr = run_lazy(k, trace, alpha);
    const double total =
        static_cast<double>(lr.routing + lr.reconfig) / static_cast<double>(m);
    out.add_row({"lazy rebuild, alpha=" + std::to_string(alpha),
                 fixed_cell(static_cast<double>(lr.routing) / m),
                 fixed_cell(static_cast<double>(lr.reconfig) / m),
                 fixed_cell(total), std::to_string(lr.rebuilds)});
  }

  SimResult fixed = run_trace_static(full_kary_tree(k, n), trace);
  out.add_row({"full tree (never adjusts)", fixed_cell(fixed.avg_routing_cost()),
               "0.000", fixed_cell(fixed.avg_request_cost()), "0"});

  out.print();
  std::cout << "\nSmall alpha tracks the drift closely but pays frequent "
               "reconfigurations; large\nalpha converges to the static "
               "tree. The reactive SplayNet needs no tuning.\n";
  return 0;
}
