// KArySplayNet: the paper's online self-adjusting k-ary search tree network
// (Section 4.1).
//
// Serving a request (u, v) splays u to the position of the lowest common
// ancestor of u and v and then splays v to become a child of u, using
// k-splay steps (two levels at a time) with a final k-semi-splay when the
// remaining distance is one — the direct generalization of SplayNet's
// double-splay. Routing cost is the u-v distance in the topology *before*
// adjustment (Section 2 model); every k-splay / k-semi-splay counts as one
// rotation (the experimental section's unit-cost convention), and the exact
// links-added-plus-removed adjustment cost is tracked alongside.
#pragma once

#include <string>

#include "core/karytree.hpp"
#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"

namespace san {

/// Per-request cost breakdown.
struct ServeResult {
  Cost routing_cost = 0;  ///< path length in the pre-adjustment topology
  int rotations = 0;      ///< k-splay + k-semi-splay steps performed
  int parent_changes = 0;
  int edge_changes = 0;  ///< links added + removed (Section 2 adjustment)

  friend bool operator==(const ServeResult&, const ServeResult&) = default;
};

/// How aggressively the network self-adjusts.
enum class SplayMode {
  /// Full double-splay with k-splay steps (the paper's k-ary SplayNet).
  kFullSplay,
  /// Single-level k-semi-splay steps only: the accessed nodes rise one
  /// level per rotation instead of two. A gentler adjuster in the spirit
  /// of Sleator-Tarjan semi-splaying; san_cli's `semisplay` topology.
  kSemiSplayOnly,
};

class KArySplayNet {
 public:
  /// Adopts an existing valid topology.
  explicit KArySplayNet(KAryTree initial, RotationPolicy policy = {},
                        SplayMode mode = SplayMode::kFullSplay);

  /// Balanced (complete k-ary) initial topology on n nodes — the standard
  /// demand-oblivious starting network of the evaluation.
  static KArySplayNet balanced(int k, int n, RotationPolicy policy = {},
                               SplayMode mode = SplayMode::kFullSplay);

  /// Serves the communication request (u, v) and self-adjusts.
  ServeResult serve(NodeId u, NodeId v);

  /// Splay-tree access: splays `x` all the way to the root (Theorem 12's
  /// k-ary splay *tree* mode, where every request originates at the root).
  ServeResult access(NodeId x);

  /// Splays `x` upward until its parent is `stop_parent` (kNoNode = until
  /// root). Exposed for CentroidSplayNet, which pins centroid nodes.
  ServeResult splay_until_parent(NodeId x, NodeId stop_parent);

  const KAryTree& tree() const { return tree_; }
  KAryTree& tree_mut() { return tree_; }
  int size() const { return tree_.size(); }
  int arity() const { return tree_.arity(); }
  const RotationPolicy& policy() const { return policy_; }
  std::string name() const {
    return std::to_string(arity()) + "-ary SplayNet" +
           (mode_ == SplayMode::kSemiSplayOnly ? " (semi-splay)" : "");
  }

 private:
  KAryTree tree_;
  RotationPolicy policy_;
  SplayMode mode_;
};

/// (k+1)-SplayNet: the centroid heuristic of Section 4.2 (Figures 7-8).
///
/// Two fixed centroid nodes: c2 plays the centroid of the static
/// construction with k self-adjusting k-ary SplayNet subtrees of size
/// (n-2)/(k+1); c1 hangs above it with k-1 SplayNet subtrees sharing the
/// remaining (n-2)/(k+1) nodes. Subtree membership is permanent and the
/// centroids never rotate; requests inside one subtree are served exactly as
/// in KArySplayNet, requests across subtrees splay both endpoints to their
/// subtree roots and route via u -> c_a (-> c_b) -> v.
class CentroidSplayNet {
 public:
  CentroidSplayNet(int k, int n, RotationPolicy policy = {});

  ServeResult serve(NodeId u, NodeId v);

  const KAryTree& tree() const { return net_.tree(); }
  int size() const { return net_.size(); }
  int arity() const { return net_.arity(); }
  std::string name() const { return std::to_string(arity() + 1) + "-SplayNet"; }
  NodeId c1() const { return c1_; }
  NodeId c2() const { return c2_; }
  /// Fixed subtree index of a node: 0..k-2 under c1, k-1..2k-2 under c2,
  /// -1 for the centroids themselves.
  int subtree_of(NodeId id) const { return subtree_idx_[id]; }

 private:
  NodeId centroid_parent(int subtree) const {
    return subtree < arity() - 1 ? c1_ : c2_;
  }

  KArySplayNet net_;
  NodeId c1_ = kNoNode;
  NodeId c2_ = kNoNode;
  std::vector<int> subtree_idx_;
};

}  // namespace san
