// Local greedy routing: on freshly constructed trees every node's id key is
// a boundary at the node itself, so hop-by-hop forwarding follows the exact
// shortest tree path; after rotations id keys may drift and the bounce rule
// recovers, still delivering with bounded overhead.
#include <gtest/gtest.h>

#include <random>

#include "core/local_router.hpp"
#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"

namespace san {
namespace {

class LocalRouterTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalRouterTest, MatchesDistanceOnFreshTrees) {
  const int k = GetParam();
  for (int n : {5, 33, 128}) {
    KAryTree t = build_from_shape(k, make_complete_shape(n, k));
    for (NodeId u = 1; u <= n; u += 3)
      for (NodeId v = 1; v <= n; v += 5) {
        const int len = local_route_length(t, u, v);
        EXPECT_EQ(len, t.distance(u, v)) << "k=" << k << " " << u << "->" << v;
      }
  }
}

TEST_P(LocalRouterTest, MatchesDistanceOnRandomFreshTrees) {
  const int k = GetParam();
  std::mt19937_64 rng(777 + k);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 10 + static_cast<int>(rng() % 60);
    Shape s = make_random_shape(n, k, rng);
    s.recompute_sizes();
    KAryTree t = build_from_shape(k, s);
    for (NodeId u = 1; u <= n; ++u)
      for (NodeId v = 1; v <= n; v += 3)
        EXPECT_EQ(local_route_length(t, u, v), t.distance(u, v));
  }
}

TEST_P(LocalRouterTest, DeliversAfterRotationStorm) {
  const int k = GetParam();
  const int n = 100;
  KArySplayNet net = KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(k);
  for (int step = 0; step < 300; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u != v) net.serve(u, v);
  }
  const KAryTree& t = net.tree();
  for (NodeId u = 1; u <= n; u += 2)
    for (NodeId v = 1; v <= n; v += 3) {
      auto hops = local_route(t, u, v);
      ASSERT_FALSE(hops.empty());
      EXPECT_EQ(hops.back().kind, HopKind::kDeliverLocal);
      EXPECT_EQ(hops.back().at, v);
      const int len = static_cast<int>(hops.size()) - 1;
      EXPECT_GE(len, t.distance(u, v));
      EXPECT_LE(len, 4 * t.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Arity, LocalRouterTest, ::testing::Values(2, 3, 5, 8),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(LocalRouter, SelfDelivery) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  auto hops = local_route(t, 4, 4);
  EXPECT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops.front().kind, HopKind::kDeliverLocal);
  EXPECT_EQ(local_route_length(t, 4, 4), 0);
}

TEST(LocalRouter, HopKindsFollowUpDownPattern) {
  // On a fresh tree the hop sequence is parents first, then children: the
  // reverse-search / search route of Section 2.
  KAryTree t = build_from_shape(2, make_complete_shape(31, 2));
  auto hops = local_route(t, 1, 31);
  bool seen_down = false;
  for (const Hop& h : hops) {
    if (h.kind == HopKind::kToChild) seen_down = true;
    if (h.kind == HopKind::kToParent) {
      EXPECT_FALSE(seen_down) << "went up after descending on a fresh tree";
    }
  }
}

}  // namespace
}  // namespace san
