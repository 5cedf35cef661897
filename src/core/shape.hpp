// Tree shapes and the shape -> k-ary search tree builder.
//
// Static constructions in the paper (full k-ary tree, centroid tree, DP
// reconstructions) are naturally described as *shapes*: rooted trees with
// ordered children plus, per node, the position of the node's own identifier
// among its children (`self_pos`). Given a shape, identifiers are assigned
// in order and routing keys are derived so the search property holds; the
// node's own identifier sits at the boundary between child `self_pos - 1`
// and child `self_pos` (half-open convention, see types.hpp).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/karytree.hpp"
#include "core/types.hpp"

namespace san {

/// Rooted ordered tree shape. `size` counts the node itself plus all
/// descendants and is maintained by the factory helpers; call
/// `recompute_sizes` after manual edits.
struct Shape {
  int self_pos = 0;
  std::vector<Shape> kids;
  int size = 1;

  /// Recomputes `size` bottom-up and clamps self_pos into [0, kids.size()].
  int recompute_sizes();
};

/// Builds a KAryTree over ids 1..shape.size with arity k from `shape`.
/// Throws TreeError if any shape node has more than k children.
KAryTree build_from_shape(int k, const Shape& shape);

/// Installs `shape` as the subtree covering ids [first, first+shape.size)
/// into an existing tree; returns the subtree root id. `lo`/`hi` is the
/// routing range recorded on the subtree root (callers link it afterwards).
/// Allocates nothing per node: each node is staged in thread-local scratch
/// that grows once per arity. Throws TreeError on a malformed shape.
NodeId install_shape(KAryTree& tree, const Shape& shape, NodeId first,
                     RoutingKey lo, RoutingKey hi);

/// Complete k-ary tree shape on n nodes: every level full except the last,
/// which is filled left to right ("full k-ary tree" of the paper's
/// evaluation; also the weakly-complete building block of the centroid
/// construction). self_pos is the middle child slot.
Shape make_complete_shape(int n, int k);

/// Degenerate path (each node one child) — worst-case topology used in
/// tests and as an adversarial initial network.
Shape make_path_shape(int n);

/// Uniformly random shape with at most k children per node, random
/// self positions. Used by property tests and as a random initial network.
Shape make_random_shape(int n, int k, std::mt19937_64& rng);

}  // namespace san
