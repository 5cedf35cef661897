// Concrete network wrappers over every topology the evaluation compares:
// self-adjusting (k-ary SplayNet, (k+1)-SplayNet, binary SplayNet, sharded)
// and static (full tree, optimal DP tree, centroid tree).
//
// These are plain value types — serve() is a direct (devirtualized) call.
// Closed-set dispatch across them goes through the std::variant-based
// AnyNetwork (any_network.hpp).
#pragma once

#include <string>
#include <utility>

#include "core/binary_splaynet.hpp"
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
  int size() const { return tree_.size(); }
  std::string name() const { return name_; }
  const KAryTree& tree() const { return tree_; }

 private:
  KAryTree tree_;
  std::string name_;
};

class KArySplayNetwork {
 public:
  explicit KArySplayNetwork(KArySplayNet net) : net_(std::move(net)) {}

  ServeResult serve(NodeId u, NodeId v) { return net_.serve(u, v); }
  int size() const { return net_.size(); }
  std::string name() const {
    return std::to_string(net_.arity()) + "-ary SplayNet";
  }
  const KArySplayNet& net() const { return net_; }

 private:
  KArySplayNet net_;
};

class CentroidSplayNetwork {
 public:
  explicit CentroidSplayNetwork(CentroidSplayNet net) : net_(std::move(net)) {}

  ServeResult serve(NodeId u, NodeId v) { return net_.serve(u, v); }
  int size() const { return net_.size(); }
  std::string name() const {
    return std::to_string(net_.arity() + 1) + "-SplayNet";
  }
  const CentroidSplayNet& net() const { return net_; }

 private:
  CentroidSplayNet net_;
};

class BinarySplayNetwork {
 public:
  explicit BinarySplayNetwork(int n) : net_(n) {}

  ServeResult serve(NodeId u, NodeId v) { return net_.serve(u, v); }
  int size() const { return net_.size(); }
  std::string name() const { return "SplayNet"; }
  const BinarySplayNet& net() const { return net_; }

 private:
  BinarySplayNet net_;
};

}  // namespace san
