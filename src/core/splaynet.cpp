#include "core/splaynet.hpp"

#include <algorithm>

namespace san {
namespace {

void accumulate(ServeResult& total, const RotationResult& step) {
  ++total.rotations;
  total.parent_changes += step.parent_changes;
  total.edge_changes += step.edge_changes;
}

}  // namespace

KArySplayNet::KArySplayNet(KAryTree initial, RotationPolicy policy,
                           SplayMode mode)
    : tree_(std::move(initial)), policy_(policy), mode_(mode) {
  if (auto err = tree_.validate())
    throw TreeError("KArySplayNet: invalid initial topology: " + *err);
}

KArySplayNet KArySplayNet::balanced(int k, int n, RotationPolicy policy,
                                    SplayMode mode) {
  return KArySplayNet(build_from_shape(k, make_complete_shape(n, k)), policy,
                      mode);
}

ServeResult KArySplayNet::splay_until_parent(NodeId x, NodeId stop_parent) {
  ServeResult res;
  while (true) {
    const NodeId p = tree_.parent(x);
    if (p == stop_parent) break;
    if (p == kNoNode)
      throw TreeError("splay_until_parent: stop parent not on root path");
    if (mode_ == SplayMode::kSemiSplayOnly ||
        tree_.parent(p) == stop_parent)
      accumulate(res, k_semi_splay(tree_, x, policy_));
    else
      accumulate(res, k_splay(tree_, x, policy_));
  }
  return res;
}

ServeResult KArySplayNet::serve(NodeId u, NodeId v) {
  ServeResult res;
  if (u == v) return res;
  // One two-sided walk yields both the pre-adjustment routing cost and the
  // LCA whose position u will take.
  const PathInfo path = tree_.path_info(u, v);
  res.routing_cost = path.distance;

  // Phase 1: u takes the place of the lowest common ancestor.
  const NodeId stop = tree_.parent(path.lca);
  ServeResult up = splay_until_parent(u, stop);
  // Phase 2: v becomes a child of u; the request is then one hop.
  ServeResult down = splay_until_parent(v, u);

  res.rotations = up.rotations + down.rotations;
  res.parent_changes = up.parent_changes + down.parent_changes;
  res.edge_changes = up.edge_changes + down.edge_changes;
  return res;
}

ServeResult KArySplayNet::access(NodeId x) {
  // The pre-adjustment depth (= routing cost of a root-originated request)
  // is recovered from the splay itself instead of a separate depth() walk:
  // every k-splay lifts x exactly two levels and every k-semi-splay one,
  // so the levels climbed sum to the original depth. This keeps the
  // cross-shard ascent path (sharded_network.cpp) at one tree walk per
  // access: the splay's own climb.
  ServeResult res;
  while (true) {
    const NodeId p = tree_.parent(x);
    if (p == kNoNode) break;
    if (mode_ == SplayMode::kSemiSplayOnly || tree_.parent(p) == kNoNode) {
      accumulate(res, k_semi_splay(tree_, x, policy_));
      res.routing_cost += 1;
    } else {
      accumulate(res, k_splay(tree_, x, policy_));
      res.routing_cost += 2;
    }
  }
  return res;
}

CentroidSplayNet::CentroidSplayNet(int k, int n, RotationPolicy policy)
    : net_([&] {
        if (n < 2 * k + 1)
          throw TreeError(
              "CentroidSplayNet needs at least 2k+1 nodes (two centroids plus "
              "one node per subtree)");
        // Paper Fig. 8 layout: c1 side holds (n-2)/(k+1) nodes across k-1
        // subtrees, c2 side holds the rest across k subtrees.
        const int body = n - 2;
        const int c1_side = body / (k + 1);
        const int c2_side = body - c1_side;

        auto split = [](int total, int parts) {
          std::vector<int> sizes(parts, total / parts);
          for (int i = 0; i < total % parts; ++i) ++sizes[i];
          return sizes;
        };
        const std::vector<int> a_sizes = split(c1_side, k - 1);
        const std::vector<int> b_sizes = split(c2_side, k);

        Shape c2_shape;
        for (int sz : b_sizes)
          if (sz > 0) c2_shape.kids.push_back(make_complete_shape(sz, k));
        c2_shape.self_pos = static_cast<int>(c2_shape.kids.size()) / 2;

        Shape c1_shape;
        for (int sz : a_sizes)
          if (sz > 0) c1_shape.kids.push_back(make_complete_shape(sz, k));
        c1_shape.self_pos = static_cast<int>(c1_shape.kids.size());
        c1_shape.kids.push_back(std::move(c2_shape));
        c1_shape.recompute_sizes();
        return KArySplayNet(build_from_shape(k, c1_shape), policy);
      }()) {
  // Recover the centroid ids and record permanent subtree membership.
  const KAryTree& t = net_.tree();
  c1_ = t.root();
  subtree_idx_.assign(static_cast<size_t>(n) + 1, -1);
  int index = 0;
  std::vector<NodeId> c2_kids;
  const auto& c1_children = t.node(c1_).children;
  for (size_t s = 0; s < c1_children.size(); ++s) {
    NodeId child = c1_children[s];
    if (child == kNoNode) continue;
    if (s + 1 == c1_children.size()) {
      c2_ = child;  // last child interval holds the c2 subtree
    } else {
      std::vector<NodeId> stack = {child};
      while (!stack.empty()) {
        NodeId cur = stack.back();
        stack.pop_back();
        subtree_idx_[cur] = index;
        for (NodeId c : t.node(cur).children)
          if (c != kNoNode) stack.push_back(c);
      }
      ++index;
    }
  }
  // Indices k-1..2k-2 belong to c2's children. Subtree count under c1 can be
  // lower than k-1 for tiny n; c2 children always start at index k-1.
  index = k - 1;
  for (NodeId child : t.node(c2_).children) {
    if (child == kNoNode) continue;
    std::vector<NodeId> stack = {child};
    while (!stack.empty()) {
      NodeId cur = stack.back();
      stack.pop_back();
      subtree_idx_[cur] = index;
      for (NodeId c : t.node(cur).children)
        if (c != kNoNode) stack.push_back(c);
    }
    ++index;
  }
}

ServeResult CentroidSplayNet::serve(NodeId u, NodeId v) {
  ServeResult res;
  if (u == v) return res;
  const PathInfo path = net_.tree().path_info(u, v);
  res.routing_cost = path.distance;

  const int su = subtree_of(u);
  const int sv = subtree_of(v);
  if (su == sv && su >= 0) {
    // Intra-subtree request: exactly the k-ary SplayNet behaviour, confined
    // to the subtree (the LCA is inside it, so rotations never touch the
    // centroids).
    ServeResult up = net_.splay_until_parent(u, net_.tree().parent(path.lca));
    ServeResult down = net_.splay_until_parent(v, u);
    res.rotations = up.rotations + down.rotations;
    res.parent_changes = up.parent_changes + down.parent_changes;
    res.edge_changes = up.edge_changes + down.edge_changes;
    return res;
  }
  // Cross-subtree (or centroid endpoint): splay each non-centroid endpoint
  // to its subtree root; the route then runs u -> c_a (-> c_b) -> v.
  for (auto [node, st] : {std::pair{u, su}, std::pair{v, sv}}) {
    if (st < 0) continue;  // centroids stay put
    ServeResult part = net_.splay_until_parent(node, centroid_parent(st));
    res.rotations += part.rotations;
    res.parent_changes += part.parent_changes;
    res.edge_changes += part.edge_changes;
  }
  return res;
}

}  // namespace san
