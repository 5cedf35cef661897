// Quickstart: build a k-ary SplayNet, serve a workload, inspect costs.
//
//   $ ./quickstart [k] [n] [requests]
//
// Walks through the core public API: constructing a self-adjusting k-ary
// search tree network, serving a trace with temporal locality, comparing
// against a static full tree, and reading the cost breakdown.
#include <cstdlib>
#include <iostream>

#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "workload/generators.hpp"
#include "workload/trace_stats.hpp"

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 4;
  const int n = argc > 2 ? std::atoi(argv[2]) : 256;
  const std::size_t m = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 50000;

  std::cout << "Self-adjusting " << k << "-ary search tree network on " << n
            << " nodes, " << m << " requests\n\n";

  // A workload with mild temporal locality (repeat probability 0.5).
  san::Trace trace = san::gen_temporal(n, m, 0.5, /*seed=*/7);
  san::TraceStats stats = san::compute_stats(trace);
  std::cout << "trace: src entropy " << stats.src_entropy << " bits, repeat "
            << stats.repeat_fraction << ", distinct pairs "
            << stats.distinct_pairs << "\n\n";

  // Online self-adjusting network, starting from a balanced topology.
  san::KArySplayNet online = san::KArySplayNet::balanced(k, n);
  san::SimResult online_cost = san::run_trace(online, trace);

  // Demand-oblivious static baseline: the complete k-ary tree.
  san::SimResult static_cost =
      san::run_trace_static(san::full_kary_tree(k, n), trace);

  std::cout << "k-ary SplayNet : routing " << online_cost.routing_cost
            << " + rotations " << online_cost.rotation_count << " = "
            << online_cost.total_cost() << " (avg "
            << online_cost.avg_request_cost() << "/req)\n";
  std::cout << "full k-ary tree: routing " << static_cost.routing_cost
            << " (avg " << static_cost.avg_request_cost() << "/req)\n";

  const bool online_wins =
      online_cost.total_cost() < static_cost.total_cost();
  std::cout << "\n=> " << (online_wins ? "self-adjusting wins" : "static wins")
            << " on this trace; raise the repeat probability to favour "
               "self-adjustment.\n";

  // The topology stayed a valid k-ary search tree throughout.
  std::cout << "final topology valid: "
            << (online.tree().valid() ? "yes" : "NO") << "\n";
  return 0;
}
