// KArySplayNet behaviour: the online network must preserve the search
// property, node identifiers, the saturation invariant, and the node set
// across arbitrary serve sequences; repeated requests must become cheap
// (distance 1); access mode must satisfy the Theorem 12 entropy bound up to
// a constant; and depth must stay logarithmic under uniform load.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>

#include "core/splaynet.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

class SplayNetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SplayNetPropertyTest, ServePreservesInvariants) {
  const int k = GetParam();
  const int n = 120;
  KArySplayNet net = KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(99 + k);
  for (int step = 0; step < 500; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u == v) continue;
    const ServeResult r = net.serve(u, v);
    EXPECT_GE(r.routing_cost, 1);
    if (step % 50 == 0) {
      auto err = net.tree().validate();
      ASSERT_FALSE(err.has_value()) << "k=" << k << " step " << step << ": "
                                    << *err;
    }
  }
  auto err = net.tree().validate();
  ASSERT_FALSE(err.has_value()) << *err;
  // Saturation: every node still holds exactly k-1 routing keys.
  for (NodeId id = 1; id <= n; ++id)
    EXPECT_EQ(net.tree().node(id).keys.size(), static_cast<size_t>(k - 1))
        << "node " << id;
}

TEST_P(SplayNetPropertyTest, ServeBringsEndpointsAdjacent) {
  const int k = GetParam();
  const int n = 100;
  KArySplayNet net = KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(7 * k);
  for (int step = 0; step < 200; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u == v) continue;
    net.serve(u, v);
    // After the double splay u and v are adjacent: repeating the request
    // costs exactly one hop and performs no rotations.
    const ServeResult again = net.serve(u, v);
    EXPECT_EQ(again.routing_cost, 1) << "k=" << k;
    EXPECT_EQ(again.rotations, 0) << "k=" << k;
  }
}

TEST_P(SplayNetPropertyTest, SelfRequestIsFree) {
  const int k = GetParam();
  KArySplayNet net = KArySplayNet::balanced(k, 50);
  const ServeResult r = net.serve(17, 17);
  EXPECT_EQ(r.routing_cost, 0);
  EXPECT_EQ(r.rotations, 0);
}

TEST_P(SplayNetPropertyTest, AccessMovesNodeToRoot) {
  const int k = GetParam();
  const int n = 80;
  KArySplayNet net = KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(13 * k);
  for (int step = 0; step < 100; ++step) {
    NodeId x = 1 + static_cast<NodeId>(rng() % n);
    const int depth_before = net.tree().depth(x);
    const ServeResult r = net.access(x);
    EXPECT_EQ(r.routing_cost, depth_before);
    EXPECT_EQ(net.tree().root(), x);
  }
  EXPECT_TRUE(net.tree().valid());
}

TEST_P(SplayNetPropertyTest, UniformLoadKeepsDepthLogarithmic) {
  const int k = GetParam();
  const int n = 512;
  KArySplayNet net = KArySplayNet::balanced(k, n);
  Trace trace = gen_uniform(n, 20000, 21);
  for (const Request& r : trace.requests) net.serve(r.src, r.dst);
  double depth_sum = 0;
  for (NodeId id = 1; id <= n; ++id) depth_sum += net.tree().depth(id);
  const double avg_depth = depth_sum / n;
  // Generous bound: a few multiples of log_k n (splay trees are loose but
  // never linear). Degeneration to chains would give ~n/2 = 256.
  const double logk = std::log(n) / std::log(k);
  EXPECT_LT(avg_depth, 6.0 * logk + 8.0) << "k=" << k;
}

TEST_P(SplayNetPropertyTest, HigherLocalityLowersCost) {
  const int k = GetParam();
  const int n = 256;
  auto total_cost = [&](double p) {
    KArySplayNet net = KArySplayNet::balanced(k, n);
    Trace t = gen_temporal(n, 20000, p, 5);
    Cost c = 0;
    for (const Request& r : t.requests)
      c += net.serve(r.src, r.dst).routing_cost;
    return c;
  };
  EXPECT_LT(total_cost(0.9), total_cost(0.5));
  EXPECT_LT(total_cost(0.5), total_cost(0.0));
}

INSTANTIATE_TEST_SUITE_P(Arity, SplayNetPropertyTest, ::testing::Range(2, 11),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(SplayNet, RejectsInvalidInitialTopology) {
  KAryTree t(3, 4);  // no root installed
  EXPECT_THROW(KArySplayNet net(std::move(t)), TreeError);
}

TEST(SplayNet, StaticOptimalityEntropyBound) {
  // Theorem 12: total access cost is O(m + sum_x n_x log(m / n_x)). Run a
  // heavily skewed access sequence and check the measured cost against the
  // entropy bound with a single constant for all arities.
  const int n = 256;
  std::mt19937_64 rng(3);
  for (int k : {2, 3, 5, 8}) {
    KArySplayNet net = KArySplayNet::balanced(k, n);
    std::vector<std::size_t> counts(static_cast<size_t>(n) + 1, 0);
    const std::size_t m = 40000;
    Cost total = 0;
    for (std::size_t i = 0; i < m; ++i) {
      // Zipf-flavoured skew: node 1 + floor(n * u^3).
      const double u = std::uniform_real_distribution<double>(0, 1)(rng);
      NodeId x = 1 + static_cast<NodeId>(
                         std::min<double>(n - 1, n * u * u * u));
      ++counts[static_cast<size_t>(x)];
      total += net.access(x).routing_cost;
    }
    double bound = static_cast<double>(m);
    for (NodeId x = 1; x <= n; ++x) {
      if (counts[static_cast<size_t>(x)] == 0) continue;
      const double nx = static_cast<double>(counts[static_cast<size_t>(x)]);
      bound += nx * std::log2(static_cast<double>(m) / nx);
    }
    EXPECT_LT(static_cast<double>(total), 3.0 * bound) << "k=" << k;
  }
}

TEST(SplayNet, ServingAncestorDescendantPairs) {
  // u ancestor of v and vice versa are the boundary paths of the LCA logic.
  KArySplayNet net = KArySplayNet::balanced(3, 64);
  const NodeId root = net.tree().root();
  NodeId deep = root;
  for (NodeId id = 1; id <= 64; ++id)
    if (net.tree().depth(id) > net.tree().depth(deep)) deep = id;
  const int d = net.tree().distance(root, deep);
  ServeResult r = net.serve(root, deep);
  EXPECT_EQ(r.routing_cost, d);
  EXPECT_TRUE(net.tree().valid());
  EXPECT_EQ(net.tree().distance(root, deep), 1);
  r = net.serve(deep, root);
  EXPECT_EQ(r.routing_cost, 1);
  EXPECT_TRUE(net.tree().valid());
}

TEST(SplayNet, EdgeChangeAccountingIsConsistent) {
  KArySplayNet net = KArySplayNet::balanced(4, 200);
  std::mt19937_64 rng(17);
  for (int step = 0; step < 200; ++step) {
    NodeId u = 1 + static_cast<NodeId>(rng() % 200);
    NodeId v = 1 + static_cast<NodeId>(rng() % 200);
    if (u == v) continue;
    const ServeResult r = net.serve(u, v);
    // Every rotation changes at least one parent; each parent change adds
    // at most two link operations.
    EXPECT_LE(r.parent_changes, r.edge_changes);
    EXPECT_LE(r.edge_changes, 2 * r.parent_changes);
    if (r.rotations > 0) {
      EXPECT_GT(r.parent_changes, 0);
    }
  }
}

}  // namespace
}  // namespace san
