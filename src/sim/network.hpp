// The static topology of the evaluation (full tree, optimal DP tree,
// centroid tree) as a network: a fixed KAryTree that serves by pure
// routing. The self-adjusting engines (KArySplayNet, CentroidSplayNet,
// BinarySplayNet, ShardedNetwork) serve on their own; AnyNetwork
// (any_network.hpp) holds either kind.
#pragma once

#include <string>
#include <utility>

#include "core/splaynet.hpp"

namespace san {

/// Shared costing for never-adjusting topologies: pure pre-adjustment
/// routing, zero rotations. Both StaticTreeNetwork::serve and
/// run_trace_static (simulator.cpp) route through this one helper so the
/// two static costing paths cannot drift apart
/// (tests/test_simulator.cpp: StaticPathsAgree).
inline ServeResult serve_on_static_tree(const KAryTree& tree, NodeId u,
                                        NodeId v) {
  ServeResult r;
  if (u != v) r.routing_cost = tree.distance(u, v);
  return r;
}

/// Static tree: serving is pure routing, no adjustment ever happens.
class StaticTreeNetwork {
 public:
  StaticTreeNetwork(KAryTree tree, std::string name)
      : tree_(std::move(tree)), name_(std::move(name)) {
    if (auto err = tree_.validate())
      throw TreeError("StaticTreeNetwork: " + *err);
  }

  ServeResult serve(NodeId u, NodeId v) {
    return serve_on_static_tree(tree_, u, v);
  }
  std::string name() const { return name_; }
  const KAryTree& tree() const { return tree_; }

 private:
  KAryTree tree_;
  std::string name_;
};

}  // namespace san
