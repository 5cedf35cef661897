// Local routing demo: the practical selling point of search-tree SANs
// (Section 2) — after any reconfiguration, packets still route greedily
// with node-local state only (routing keys + subtree range), no routing
// table updates.
//
// The demo builds a k-ary SplayNet, routes packets hop by hop while the
// topology keeps rotating underneath, and prints per-hop decisions for a
// sample packet plus aggregate stretch statistics.
//
//   $ ./local_routing_demo [k] [n]
#include <cstdlib>
#include <iostream>
#include <random>

#include "core/local_router.hpp"
#include "core/splaynet.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 4;
  const int n = argc > 2 ? std::atoi(argv[2]) : 64;

  san::KArySplayNet net = san::KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(3);

  // Warm the network with some traffic so the topology is no longer the
  // pristine balanced tree.
  for (int i = 0; i < 2000; ++i) {
    san::NodeId u = 1 + static_cast<san::NodeId>(rng() % n);
    san::NodeId v = 1 + static_cast<san::NodeId>(rng() % n);
    if (u != v) net.serve(u, v);
  }

  // Show one packet's hop-by-hop trip.
  const san::NodeId src = 1 + static_cast<san::NodeId>(rng() % n);
  san::NodeId dst = 1 + static_cast<san::NodeId>(rng() % n);
  while (dst == src) dst = 1 + static_cast<san::NodeId>(rng() % n);
  std::cout << "packet " << src << " -> " << dst
            << " over the self-adjusted topology:\n";
  for (const san::Hop& hop : san::local_route(net.tree(), src, dst)) {
    switch (hop.kind) {
      case san::HopKind::kDeliverLocal:
        std::cout << "  at " << hop.at << ": deliver\n";
        break;
      case san::HopKind::kToChild:
        std::cout << "  at " << hop.at << ": target in my subtree range -> "
                  << "child " << hop.next << "\n";
        break;
      case san::HopKind::kToParent:
        std::cout << "  at " << hop.at << ": target outside my range -> "
                  << "parent " << hop.next << "\n";
        break;
    }
  }

  // Aggregate: local forwarding vs exact tree distance for all pairs,
  // interleaved with further self-adjustments.
  long pairs = 0, exact = 0, total_stretch_hops = 0;
  for (san::NodeId u = 1; u <= n; ++u) {
    for (san::NodeId v = 1; v <= n; ++v) {
      if (u == v) continue;
      const int len = san::local_route_length(net.tree(), u, v);
      const int dist = net.tree().distance(u, v);
      ++pairs;
      if (len == dist) ++exact;
      total_stretch_hops += len - dist;
    }
    // keep rotating while we measure
    san::NodeId a = 1 + static_cast<san::NodeId>(rng() % n);
    san::NodeId b = 1 + static_cast<san::NodeId>(rng() % n);
    if (a != b) net.serve(a, b);
  }
  std::cout << "\nall-pairs local forwarding: " << pairs << " packets, "
            << exact << " on the exact shortest path ("
            << san::fixed_cell(100.0 * exact / pairs, 1) << "%), "
            << "average overhead "
            << san::fixed_cell(static_cast<double>(total_stretch_hops) / pairs,
                               3)
            << " hops\n";
  std::cout << "(detours can appear after rotations when an id key has "
               "drifted; the bounce rule\n recovers locally: a packet never "
               "goes back down the child it came up from)\n";
  return 0;
}
