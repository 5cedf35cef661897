#include "core/local_router.hpp"

#include <algorithm>

namespace san {

int local_route_into(const KAryTree& tree, NodeId src, NodeId dst,
                     std::vector<Hop>& hops) {
  hops.clear();
  NodeId cur = src;
  // The port the packet arrived on: kNoNode for "fresh" / "from parent",
  // otherwise the child we just bounced back from. Keys are value
  // boundaries, not node indices, so after rotations the id key of an
  // ancestor may sit inside a descendant interval; the bounce rule ("if I
  // would forward back to where the packet came from, go up instead") keeps
  // forwarding local and loop-free then; the hop cap below backs that up.
  NodeId came_from_child = kNoNode;
  const RoutingKey target = id_key(dst);
  while (true) {
    if (hops.size() > 4 * static_cast<size_t>(tree.size()))
      throw TreeError("local_route: packet is looping");
    const TreeNode nd = tree.node(cur);
    if (cur == dst) {
      hops.push_back({cur, HopKind::kDeliverLocal, kNoNode});
      return static_cast<int>(hops.size()) - 1;
    }
    NodeId next = kNoNode;
    HopKind kind = HopKind::kToParent;
    // Open-interval semantics: a target strictly inside the range descends;
    // a target equal to one of this node's boundary values cannot be below
    // (key values are unique), so it routes upward.
    const bool on_boundary = std::binary_search(nd.keys.begin(),
                                                nd.keys.end(), target);
    if (target > nd.lo && target < nd.hi && !on_boundary) {
      const NodeId down = nd.children[tree.interval_of(cur, target)];
      if (down != kNoNode && down != came_from_child) {
        next = down;
        kind = HopKind::kToChild;
      }
    }
    if (next == kNoNode) {
      next = nd.parent;
      kind = HopKind::kToParent;
      if (next == kNoNode)
        throw TreeError("local_route: fell off the root");
    }
    hops.push_back({cur, kind, next});
    came_from_child = (kind == HopKind::kToParent) ? cur : kNoNode;
    cur = next;
  }
}

std::vector<Hop> local_route(const KAryTree& tree, NodeId src, NodeId dst) {
  std::vector<Hop> hops;
  local_route_into(tree, src, dst, hops);
  return hops;
}

int local_route_length(const KAryTree& tree, NodeId src, NodeId dst) {
  thread_local std::vector<Hop> hops;
  return local_route_into(tree, src, dst, hops);
}

}  // namespace san
