// (k+1)-SplayNet (Section 4.2): fixed centroids, permanent subtree
// membership, Fig. 8 size split, and serve correctness.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/splaynet.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

class CentroidNetTest : public ::testing::TestWithParam<int> {};

TEST_P(CentroidNetTest, ConstructionMatchesFig8Layout) {
  const int k = GetParam();
  const int n = 500;
  CentroidSplayNet net(k, n);
  ASSERT_TRUE(net.tree().valid());
  EXPECT_EQ(net.tree().root(), net.c1());

  // c2 is a child of c1.
  EXPECT_EQ(net.tree().node(net.c2()).parent, net.c1());

  // Count per-subtree sizes: c1 side holds ~ (n-2)/(k+1) nodes across k-1
  // subtrees, c2 side the rest across k subtrees.
  std::vector<int> sizes(static_cast<size_t>(2 * k - 1), 0);
  int centroids = 0;
  for (NodeId id = 1; id <= n; ++id) {
    const int s = net.subtree_of(id);
    if (s < 0)
      ++centroids;
    else
      ++sizes[static_cast<size_t>(s)];
  }
  EXPECT_EQ(centroids, 2);
  const int c1_side = (n - 2) / (k + 1);
  int c1_total = 0, c2_total = 0;
  for (int s = 0; s < k - 1; ++s) c1_total += sizes[static_cast<size_t>(s)];
  for (int s = k - 1; s < 2 * k - 1; ++s)
    c2_total += sizes[static_cast<size_t>(s)];
  EXPECT_EQ(c1_total, c1_side);
  EXPECT_EQ(c2_total, n - 2 - c1_side);
  // c2's subtrees are near-equal: sizes differ by at most one.
  for (int s = k - 1; s < 2 * k - 1; ++s) {
    EXPECT_LE(std::abs(sizes[static_cast<size_t>(s)] -
                       c2_total / k),
              1)
        << "subtree " << s;
  }
}

TEST_P(CentroidNetTest, CentroidsNeverMoveAndMembershipIsPermanent) {
  const int k = GetParam();
  const int n = 300;
  CentroidSplayNet net(k, n);
  const NodeId c1 = net.c1();
  const NodeId c2 = net.c2();

  std::vector<int> membership(static_cast<size_t>(n) + 1);
  for (NodeId id = 1; id <= n; ++id) membership[id] = net.subtree_of(id);
  auto current_subtree = [&](NodeId id) {
    // Recompute membership structurally: walk up to the child of c1/c2.
    NodeId cur = id;
    while (true) {
      NodeId p = net.tree().node(cur).parent;
      if (p == c1 || p == c2) break;
      cur = p;
    }
    return cur;
  };

  std::mt19937_64 rng(23 + k);
  for (int step = 0; step < 400; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u == v) continue;
    net.serve(u, v);
    EXPECT_EQ(net.tree().root(), c1);
    EXPECT_EQ(net.tree().node(c2).parent, c1);
    if (step % 40 == 0) {
      ASSERT_TRUE(net.tree().valid());
      // Structural membership agrees with the recorded one.
      for (NodeId id = 1; id <= n; id += 17) {
        if (id == c1 || id == c2) continue;
        NodeId subroot = current_subtree(id);
        // All nodes under this subtree root share one recorded index.
        EXPECT_EQ(membership[id], net.subtree_of(subroot))
            << "node " << id << " leaked into another subtree";
      }
    }
  }
}

TEST_P(CentroidNetTest, CrossSubtreeRequestEndsNearCentroids) {
  const int k = GetParam();
  const int n = 200;
  CentroidSplayNet net(k, n);
  std::mt19937_64 rng(41);
  int cross_checked = 0;
  for (int step = 0; step < 300 && cross_checked < 50; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    const int su = net.subtree_of(u);
    const int sv = net.subtree_of(v);
    if (u == v || su < 0 || sv < 0 || su == sv) continue;
    net.serve(u, v);
    ++cross_checked;
    // After splaying, both endpoints are subtree roots: children of their
    // centroid, so the route is u -> c_a (-> c_b) -> v.
    const NodeId pu = net.tree().node(u).parent;
    const NodeId pv = net.tree().node(v).parent;
    EXPECT_TRUE(pu == net.c1() || pu == net.c2());
    EXPECT_TRUE(pv == net.c1() || pv == net.c2());
    EXPECT_LE(net.tree().distance(u, v), 3);
  }
  EXPECT_GE(cross_checked, 50);
}

TEST_P(CentroidNetTest, IntraSubtreeServeMatchesSplayNetSemantics) {
  const int k = GetParam();
  const int n = 400;
  CentroidSplayNet net(k, n);
  std::mt19937_64 rng(4242);
  int checked = 0;
  while (checked < 50) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u == v || net.subtree_of(u) < 0 ||
        net.subtree_of(u) != net.subtree_of(v))
      continue;
    net.serve(u, v);
    // Exactly as in KArySplayNet: endpoints end adjacent.
    EXPECT_EQ(net.tree().distance(u, v), 1);
    ++checked;
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, CentroidNetTest, ::testing::Range(2, 9),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(CentroidNet, RejectsTooFewNodes) {
  EXPECT_THROW(CentroidSplayNet(3, 6), TreeError);
  EXPECT_NO_THROW(CentroidSplayNet(3, 7));
}

TEST(CentroidNet, ServesFullWorkloadValidly) {
  CentroidSplayNet net(2, 100);  // the paper's 3-SplayNet case study shape
  Trace t = gen_temporal(100, 5000, 0.5, 77);
  for (const Request& r : t.requests) net.serve(r.src, r.dst);
  EXPECT_TRUE(net.tree().valid());
  // Saturation preserved under confined splays too.
  for (NodeId id = 1; id <= 100; ++id)
    EXPECT_EQ(net.tree().node(id).keys.size(), 1u);
}

TEST(CentroidNet, CentroidEndpointRequests) {
  CentroidSplayNet net(3, 100);
  for (NodeId peer : {NodeId{5}, NodeId{50}, NodeId{95}}) {
    net.serve(net.c1(), peer);
    net.serve(peer, net.c2());
    EXPECT_TRUE(net.tree().valid());
    // The non-centroid endpoint was splayed to its subtree root.
    const NodeId p = net.tree().node(peer).parent;
    EXPECT_TRUE(p == net.c1() || p == net.c2());
  }
  net.serve(net.c1(), net.c2());  // both fixed: routing only
  EXPECT_TRUE(net.tree().valid());
}

}  // namespace
}  // namespace san
