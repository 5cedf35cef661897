// Hop-by-hop local routing over a k-ary search tree network.
//
// The main practical argument for search-tree SANs (Section 2): a node can
// forward a packet using only its own state — its cached subtree range
// [lo, hi) and its routing keys — with no routing tables to update after a
// reconfiguration. This module simulates exactly that local decision
// procedure; tests assert that the resulting path equals the global
// LCA-based route for all pairs, before and after arbitrary rotations.
#pragma once

#include <vector>

#include "core/karytree.hpp"
#include "core/types.hpp"

namespace san {

/// One forwarding decision made by `from` for a packet addressed to
/// `target`, using only node-local state.
enum class HopKind { kDeliverLocal, kToChild, kToParent };

struct Hop {
  NodeId at;
  HopKind kind;
  NodeId next;  ///< kNoNode for kDeliverLocal
};

/// Simulates local greedy forwarding from `src` to `dst`. Throws TreeError
/// if a node makes an impossible decision (broken search property) or the
/// hop count exceeds n.
std::vector<Hop> local_route(const KAryTree& tree, NodeId src, NodeId dst);

/// Buffer-reusing variant: replaces `out` with the hop sequence and returns
/// the number of edges traversed. No allocation once `out`'s capacity
/// covers the path, so one buffer can serve request after request.
int local_route_into(const KAryTree& tree, NodeId src, NodeId dst,
                     std::vector<Hop>& out);

/// Number of edges traversed by local forwarding. Allocation-free in steady
/// state (reuses a thread-local hop buffer).
int local_route_length(const KAryTree& tree, NodeId src, NodeId dst);

}  // namespace san
