// Property fuzz: randomized serve/access/rotation sequences interleaved
// with full audits. Seeded and deterministic (tier1). Invariants beyond
// validate()'s structural/search-property checks:
//   * pair walk: path_info / lca / distance / route_into / is_ancestor
//     agree with an independent parent-chain reference after every kind of
//     rotation, and across a wrap of the per-query stamp tag;
//   * lo/hi ranges: recomputed top-down from the keys alone, they must
//     partition each node's range exactly as the cached lo/hi claim;
//   * adjustment accounting: under every rotation policy, each rotation's
//     edge_changes/parent_changes must match an independently diffed
//     before/after parent snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "rotation_policies.hpp"

namespace san {

// Friend of KAryTree (core/karytree.hpp): positions the per-query stamp tag
// so a test can cross its 32-bit wrap without 2^32 queries.
struct KAryTreeTestPeer {
  static void set_tag(const KAryTree& t, std::uint32_t tag) { t.tag_ = tag; }
};

namespace {

// Independent pair reference from parent() alone: the LCA is the first node
// of v's parent chain that lies on u's chain.
struct ReferencePair {
  NodeId lca = kNoNode;
  std::vector<NodeId> route;  ///< u -> v, endpoints included
};

ReferencePair reference_pair(const KAryTree& t, NodeId u, NodeId v) {
  std::vector<NodeId> up;  // u's whole chain, u first
  for (NodeId x = u; x != kNoNode; x = t.parent(x)) up.push_back(x);
  std::vector<NodeId> down;  // v's chain below the LCA, v first
  NodeId x = v;
  auto at = std::find(up.begin(), up.end(), x);
  while (at == up.end()) {
    down.push_back(x);
    x = t.parent(x);
    at = std::find(up.begin(), up.end(), x);
  }
  up.erase(at + 1, up.end());
  up.insert(up.end(), down.rbegin(), down.rend());
  return {x, up};
}

bool on_chain(const KAryTree& t, NodeId anc, NodeId id) {
  for (NodeId x = id; x != kNoNode; x = t.parent(x))
    if (x == anc) return true;
  return false;
}

// Every pair query against the reference, in both argument orders.
void expect_pair_matches_reference(const KAryTree& t, NodeId u, NodeId v,
                                   std::vector<NodeId>& route) {
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    const ReferencePair want = reference_pair(t, a, b);
    const int dist = static_cast<int>(want.route.size()) - 1;
    const PathInfo info = t.path_info(a, b);
    ASSERT_EQ(info.lca, want.lca) << a << "->" << b;
    ASSERT_EQ(info.distance, dist) << a << "->" << b;
    ASSERT_EQ(t.lca(a, b), want.lca) << a << "->" << b;
    ASSERT_EQ(t.distance(a, b), dist) << a << "->" << b;
    ASSERT_EQ(t.route_into(a, b, route), dist) << a << "->" << b;
    ASSERT_EQ(route, want.route) << a << "->" << b;
    ASSERT_EQ(t.is_ancestor(a, b), on_chain(t, a, b)) << a << "->" << b;
  }
}

// Recompute every node's [lo, hi) from the root down using only the keys,
// and check the cached ranges and the child-interval partition.
void expect_ranges_partition(const KAryTree& t) {
  struct Frame {
    NodeId id;
    RoutingKey lo, hi;
  };
  std::vector<Frame> stack = {{t.root(), kKeyMin, kKeyMax}};
  int visited = 0;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    ++visited;
    ASSERT_EQ(t.lo(f.id), f.lo) << "node " << f.id;
    ASSERT_EQ(t.hi(f.id), f.hi) << "node " << f.id;
    const TreeNode nd = t.node(f.id);
    // The child intervals (lo, k1), (k1, k2), ..., (km, hi) partition the
    // node's open range: consecutive, non-empty, strictly increasing.
    RoutingKey prev = f.lo;
    for (const RoutingKey rk : nd.keys) {
      ASSERT_GT(rk, prev) << "node " << f.id;
      prev = rk;
    }
    ASSERT_LT(prev, f.hi) << "node " << f.id;
    for (size_t s = 0; s < nd.children.size(); ++s) {
      const NodeId c = nd.children[s];
      if (c == kNoNode) continue;
      const RoutingKey clo = (s == 0) ? f.lo : nd.keys[s - 1];
      const RoutingKey chi = (s == nd.keys.size()) ? f.hi : nd.keys[s];
      // The child's own id must fall strictly inside its interval.
      ASSERT_GT(id_key(c), clo);
      ASSERT_LT(id_key(c), chi);
      stack.push_back({c, clo, chi});
    }
  }
  ASSERT_EQ(visited, t.size());
}

std::vector<NodeId> snapshot_parents(const KAryTree& t) {
  std::vector<NodeId> parents(static_cast<size_t>(t.size()) + 1, kNoNode);
  for (NodeId id = 1; id <= t.size(); ++id) parents[id] = t.parent(id);
  return parents;
}

RotationResult diff_parents(const KAryTree& t,
                            const std::vector<NodeId>& before) {
  RotationResult res;
  for (NodeId id = 1; id <= t.size(); ++id) {
    const NodeId now = t.parent(id);
    if (now == before[static_cast<size_t>(id)]) continue;
    ++res.parent_changes;
    if (before[static_cast<size_t>(id)] != kNoNode) ++res.edge_changes;
    if (now != kNoNode) ++res.edge_changes;
  }
  return res;
}

TEST(FuzzInvariants, ServeAccessMixWithFullAudits) {
  for (const auto& [k, n, seed] : {std::tuple{2, 48, 101u},
                                   std::tuple{3, 80, 202u},
                                   std::tuple{5, 120, 303u},
                                   std::tuple{8, 64, 404u}}) {
    std::mt19937_64 rng(seed);
    KArySplayNet net(build_from_shape(k, make_random_shape(n, k, rng)));
    std::uniform_int_distribution<NodeId> pick(1, n);
    std::uniform_int_distribution<int> op(0, 9);
    for (int i = 0; i < 1200; ++i) {
      const NodeId u = pick(rng);
      NodeId v = pick(rng);
      while (v == u) v = pick(rng);
      if (op(rng) == 0)
        net.access(u);
      else
        net.serve(u, v);
      if (i % 100 == 99) {
        const auto err = net.tree().validate();
        ASSERT_FALSE(err.has_value()) << *err;
        expect_ranges_partition(net.tree());
      }
    }
  }
}

TEST(FuzzInvariants, RotationAccountingMatchesIndependentEdgeDiff) {
  for (const PolicyCase& pc : kPolicies) {
    for (const auto& [k, n, seed] :
         {std::tuple{2, 40, 1u}, std::tuple{3, 60, 2u}, std::tuple{6, 90, 3u}}) {
      std::mt19937_64 rng(seed);
      KAryTree t = build_from_shape(k, make_random_shape(n, k, rng));
      std::uniform_int_distribution<NodeId> pick(1, n);
      int splays = 0, semis = 0;
      for (int i = 0; i < 1500; ++i) {
        const NodeId x = pick(rng);
        const NodeId p = t.parent(x);
        if (p == kNoNode) continue;  // root: no rotation defined
        const std::vector<NodeId> before = snapshot_parents(t);
        RotationResult reported;
        if (t.parent(p) != kNoNode && (rng() & 1)) {
          reported = k_splay(t, x, pc.policy);
          ++splays;
        } else {
          reported = k_semi_splay(t, x, pc.policy);
          ++semis;
        }
        const RotationResult independent = diff_parents(t, before);
        ASSERT_EQ(reported.parent_changes, independent.parent_changes)
            << pc.name << " k=" << k << " rotation " << i << " of node " << x;
        ASSERT_EQ(reported.edge_changes, independent.edge_changes)
            << pc.name << " k=" << k << " rotation " << i << " of node " << x;
        if (i % 150 == 0) {
          const auto err = t.validate();
          ASSERT_FALSE(err.has_value()) << pc.name << ": " << *err;
        }
      }
      // The mix must actually exercise both rotation kinds.
      EXPECT_GT(splays, 100) << pc.name;
      EXPECT_GT(semis, 100) << pc.name;
    }
  }
}

TEST(FuzzInvariants, PairWalkMatchesParentChainReference) {
  // The stamped two-sided walk against the parent-chain reference while
  // k_splay / k_semi_splay keep rewiring the tree. Besides random pairs,
  // every round probes an ancestor/descendant pair, a root endpoint and
  // u == v, each in both argument orders.
  for (const auto& [k, n, seed] : {std::tuple{2, 90, 11u},
                                   std::tuple{3, 120, 22u},
                                   std::tuple{5, 150, 33u}}) {
    std::mt19937_64 rng(seed);
    KAryTree t = build_from_shape(k, make_random_shape(n, k, rng));
    std::uniform_int_distribution<NodeId> pick(1, n);
    std::vector<NodeId> route;
    int splays = 0, semis = 0;
    for (int i = 0; i < 600; ++i) {
      const NodeId x = pick(rng);
      const NodeId p = t.parent(x);
      if (p != kNoNode) {
        if (t.parent(p) != kNoNode && (rng() & 1)) {
          k_splay(t, x);
          ++splays;
        } else {
          k_semi_splay(t, x);
          ++semis;
        }
      }
      NodeId anc = x;
      for (int up = static_cast<int>(rng() % 6); up > 0; --up)
        if (t.parent(anc) != kNoNode) anc = t.parent(anc);
      ASSERT_NO_FATAL_FAILURE(
          expect_pair_matches_reference(t, x, pick(rng), route));
      ASSERT_NO_FATAL_FAILURE(
          expect_pair_matches_reference(t, x, anc, route));
      ASSERT_NO_FATAL_FAILURE(
          expect_pair_matches_reference(t, x, t.root(), route));
      ASSERT_NO_FATAL_FAILURE(
          expect_pair_matches_reference(t, x, x, route));
    }
    EXPECT_GT(splays, 100) << "k=" << k;
    EXPECT_GT(semis, 100) << "k=" << k;
  }
}

TEST(FuzzInvariants, PairWalkSurvivesStampTagWrap) {
  // One walk from the bottom of a vine to its root stamps every node under
  // tag 1. The tag then jumps to its last value, so the next query wraps
  // back to tag 1: any stamp the wrap failed to clear aliases that query.
  const int n = 64;
  KAryTree t = build_from_shape(2, make_path_shape(n));
  NodeId bottom = t.root();
  for (NodeId id = 1; id <= n; ++id)
    if (t.depth(id) > t.depth(bottom)) bottom = id;
  NodeId mid = bottom;
  for (int i = 0; i < n / 2; ++i) mid = t.parent(mid);
  t.path_info(bottom, t.root());
  KAryTreeTestPeer::set_tag(t, 0xFFFFFFFFu);
  std::vector<NodeId> route;
  ASSERT_NO_FATAL_FAILURE(expect_pair_matches_reference(t, bottom, mid, route));
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<NodeId> pick(1, n);
  for (int i = 0; i < 200; ++i)
    ASSERT_NO_FATAL_FAILURE(
        expect_pair_matches_reference(t, pick(rng), pick(rng), route));
}

}  // namespace
}  // namespace san
