// Classic SplayNet (Schmid et al., IEEE/ACM ToN 2015): the binary search
// tree network the paper generalizes and benchmarks against.
//
// Implemented independently of the k-ary machinery (plain left/right/parent
// links, Sleator-Tarjan zig / zig-zig / zig-zag steps) so it can serve both
// as the evaluation baseline and as a cross-check for KArySplayNet at k = 2.
// Node ids double as BST keys — the binary case is routing-based by
// construction.
#pragma once

#include <string>
#include <vector>

#include "core/splaynet.hpp"  // ServeResult
#include "core/types.hpp"

namespace san {

class BinarySplayNet {
 public:
  /// Balanced initial BST over ids 1..n.
  explicit BinarySplayNet(int n);

  /// Serves (u, v): splays u to the lowest common ancestor's position, then
  /// v to a child of u. Routing cost is the pre-adjustment distance; each
  /// zig / zig-zig / zig-zag step counts as one rotation.
  ServeResult serve(NodeId u, NodeId v);

  /// Splays x to the root (splay-tree access; used by static-optimality
  /// tests).
  ServeResult access(NodeId x);

  int size() const { return n_; }
  std::string name() const { return "SplayNet"; }
  NodeId root() const { return root_; }
  NodeId parent(NodeId x) const { return parent_[x]; }

  int depth(NodeId x) const;
  int distance(NodeId u, NodeId v) const;
  /// BST lowest common ancestor found by top-down search (u, v in id order).
  NodeId lca(NodeId u, NodeId v) const;

  /// Structural audit: BST order, link symmetry, all nodes reachable.
  bool valid() const;

 private:
  NodeId build_balanced(NodeId lo, NodeId hi, NodeId parent);
  /// Single rotation of x over its parent (no accounting; splay_step
  /// measures the whole step).
  void rotate_up(NodeId x);
  /// One splay step toward `stop` (parent sentinel); returns link changes.
  /// Accounting uses the same before/after snapshot-diff convention as the
  /// k-ary rotation engine (rotation.cpp): a node whose parent changed
  /// *net* over the step counts one parent change plus one edge change per
  /// link removed or added — the transient middle state of a zig-zig /
  /// zig-zag does not double-count. This is what makes the per-request
  /// ServeResults of BinarySplayNet and KArySplayNet(k=2) comparable
  /// (tests/test_differential.cpp).
  RotationResult splay_step(NodeId x, NodeId stop);
  ServeResult splay_until_parent(NodeId x, NodeId stop);

  int n_;
  NodeId root_ = kNoNode;
  std::vector<NodeId> left_, right_, parent_;
};

}  // namespace san
