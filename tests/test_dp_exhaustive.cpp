// Ground-truth cross-check of the general O(n^3 k) DP (Theorem 2): an
// independent exhaustive enumerator walks EVERY k-ary search tree over ids
// 1..n (every shape with <= k children per node and a feasible id
// position, laid out in order) and evaluates TotalDistance directly on the
// built tree. For small n the DP must hit the exhaustive minimum exactly —
// this validates the recurrence, the W-matrix, and the reconstruction in
// one pass, with no shared code path between the two answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>

#include "core/shape.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/demand_matrix.hpp"

namespace san {
namespace {

// Enumerates all valid shapes on `n` nodes for arity `k`, invoking `visit`
// for each. Children partition the n-1 non-root nodes into ordered
// non-empty groups; the root id position ranges over the feasible self
// positions (interior only when the fan-out is exactly k).
void enumerate_shapes(int n, int k, const std::function<void(Shape&)>& visit) {
  if (n == 1) {
    Shape leaf;
    visit(leaf);
    return;
  }
  // compositions of n-1 into c parts, c <= k
  std::vector<int> parts;
  std::function<void(int)> rec = [&](int remaining) {
    if (remaining == 0) {
      const int c = static_cast<int>(parts.size());
      // Recursively enumerate each part's shapes via an index cursor.
      std::vector<std::vector<Shape>> options(parts.size());
      for (size_t i = 0; i < parts.size(); ++i)
        enumerate_shapes(parts[i], k,
                         [&](Shape& s) { options[i].push_back(s); });
      std::vector<size_t> pick(parts.size(), 0);
      while (true) {
        Shape node;
        for (size_t i = 0; i < parts.size(); ++i)
          node.kids.push_back(options[i][pick[i]]);
        const int pos_lo = (c == k) ? 1 : 0;
        const int pos_hi = (c == k) ? c - 1 : c;
        for (int pos = pos_lo; pos <= pos_hi; ++pos) {
          node.self_pos = pos;
          node.recompute_sizes();
          visit(node);
        }
        // advance mixed-radix counter
        size_t i = 0;
        while (i < pick.size() && ++pick[i] == options[i].size()) {
          pick[i] = 0;
          ++i;
        }
        if (i == pick.size()) break;
      }
      return;
    }
    if (static_cast<int>(parts.size()) == k) return;
    for (int take = 1; take <= remaining; ++take) {
      parts.push_back(take);
      rec(remaining - take);
      parts.pop_back();
    }
  };
  rec(n - 1);
}

Cost exhaustive_minimum(int k, const DemandMatrix& d, long* trees_seen) {
  Cost best = kInfiniteCost;
  enumerate_shapes(d.n(), k, [&](Shape& s) {
    KAryTree t = build_from_shape(k, s);
    best = std::min(best, d.total_distance(t));
    ++*trees_seen;
  });
  return best;
}

class DpExhaustiveTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(DpExhaustiveTest, DpEqualsExhaustiveMinimum) {
  const auto [k, n] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(k) * 1000 + n);
  for (int trial = 0; trial < 3; ++trial) {
    DemandMatrix d(n);
    for (int t = 0; t < 4 * n; ++t) {
      NodeId u = 1 + static_cast<NodeId>(rng() % n);
      NodeId v = 1 + static_cast<NodeId>(rng() % n);
      if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 7));
    }
    long trees = 0;
    const Cost brute = exhaustive_minimum(k, d, &trees);
    const OptimalTreeResult dp = optimal_routing_based_tree(k, d, 1);
    EXPECT_EQ(dp.total_distance, brute)
        << "k=" << k << " n=" << n << " trial=" << trial << " (searched "
        << trees << " trees)";
    ASSERT_GT(trees, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, DpExhaustiveTest,
    ::testing::Values(std::tuple{2, 3}, std::tuple{2, 5}, std::tuple{2, 7},
                      std::tuple{3, 4}, std::tuple{3, 6}, std::tuple{4, 5},
                      std::tuple{4, 6}, std::tuple{5, 6}),
    [](const auto& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_n";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(DpExhaustive, UniformDemandSmall) {
  // Same cross-check on the uniform matrix, where Theorem 4's shape DP is
  // a third independent answer.
  for (int k : {2, 3}) {
    for (int n : {4, 6}) {
      DemandMatrix d = DemandMatrix::uniform(n);
      long trees = 0;
      const Cost brute = exhaustive_minimum(k, d, &trees);
      EXPECT_EQ(optimal_routing_based_tree(k, d, 1).total_distance, brute);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential wall: the tiled engine against the pre-rewrite
// reference oracle (optimal_dp_reference.cpp). The engine re-derives
// reconstruction argmins with the reference's exact scan order, so the
// comparison is stronger than the cost: parent array and child slots must
// match node for node.

DemandMatrix random_demand(int n, std::mt19937_64& rng) {
  DemandMatrix d(n);
  const int pairs = 1 + static_cast<int>(rng() % (3 * n));
  for (int t = 0; t < pairs; ++t) {
    NodeId u = 1 + static_cast<NodeId>(rng() % n);
    NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 97));
  }
  return d;
}

TEST(DpDifferential, FlatEngineMatchesReferenceOracle) {
  int seeds = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (int k : {2, 3, 5, 10}) {
      std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(k));
      const int n = 2 + static_cast<int>(rng() % 47);  // 2..48
      const DemandMatrix d = random_demand(n, rng);
      const OptimalTreeResult fast = optimal_routing_based_tree(k, d, 1);
      const OptimalTreeResult ref =
          optimal_routing_based_tree_reference(k, d, 1);
      ASSERT_EQ(fast.total_distance, ref.total_distance)
          << "seed=" << seed << " k=" << k << " n=" << n;
      EXPECT_EQ(optimal_routing_based_cost(k, d, 1), ref.total_distance);
      ASSERT_TRUE(fast.tree.valid()) << "seed=" << seed << " k=" << k;
      EXPECT_EQ(d.total_distance(fast.tree), fast.total_distance)
          << "seed=" << seed << " k=" << k << " n=" << n;
      for (NodeId u = 1; u <= n; ++u) {
        ASSERT_EQ(fast.tree.parent(u), ref.tree.parent(u))
            << "seed=" << seed << " k=" << k << " n=" << n << " node=" << u;
        if (fast.tree.parent(u) != kNoNode) {
          ASSERT_EQ(fast.tree.slot_in_parent(u), ref.tree.slot_in_parent(u))
              << "seed=" << seed << " k=" << k << " n=" << n << " node=" << u;
        }
      }
      ++seeds;
    }
  }
  EXPECT_GE(seeds, 200);
}

TEST(DpDifferential, ThreadedEngineMatchesReference) {
  // The tile-diagonal dispatch must not change any cost cell: pure min
  // computations are order-independent, but this is the test that keeps
  // it that way.
  for (std::uint64_t seed : {3u, 17u}) {
    for (int k : {2, 5}) {
      std::mt19937_64 rng(seed);
      const DemandMatrix d = random_demand(40, rng);
      const OptimalTreeResult ref =
          optimal_routing_based_tree_reference(k, d, 1);
      EXPECT_EQ(optimal_routing_based_tree(k, d, 4).total_distance,
                ref.total_distance);
      EXPECT_EQ(optimal_routing_based_cost(k, d, 4), ref.total_distance);
    }
  }
}

TEST(DpDifferential, TiledEngineMatchesReferenceAcrossTiles) {
  // Sizes around the engine's 32-wide tiles: one partial tile, one exact
  // tile, a one-cell edge tile, and enough tiles (3 to 5 per side) that
  // the between-tiles products run, with and without a partial last tile.
  constexpr int kTile = 32;
  for (int n : {kTile - 1, kTile, kTile + 1, 3 * kTile, 3 * kTile + 5,
                5 * kTile - 3}) {
    for (int k : {2, 3, 4, 5, 10}) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 131 +
                          static_cast<std::uint64_t>(k));
      const DemandMatrix d = random_demand(n, rng);
      const OptimalTreeResult ref =
          optimal_routing_based_tree_reference(k, d, 1);
      for (int threads : {1, 4}) {
        const OptimalTreeResult fast =
            optimal_routing_based_tree(k, d, threads);
        ASSERT_EQ(fast.total_distance, ref.total_distance)
            << "n=" << n << " k=" << k << " threads=" << threads;
        EXPECT_EQ(optimal_routing_based_cost(k, d, threads),
                  ref.total_distance)
            << "n=" << n << " k=" << k << " threads=" << threads;
        for (NodeId u = 1; u <= n; ++u) {
          ASSERT_EQ(fast.tree.parent(u), ref.tree.parent(u))
              << "n=" << n << " k=" << k << " threads=" << threads
              << " node=" << u;
          if (fast.tree.parent(u) != kNoNode) {
            ASSERT_EQ(fast.tree.slot_in_parent(u), ref.tree.slot_in_parent(u))
                << "n=" << n << " k=" << k << " threads=" << threads
                << " node=" << u;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Why the engine has no Knuth/quadrangle-inequality pruning. The classic
// window root(i, j-1) <= root(i, j) <= root(i+1, j) is only valid when the
// per-segment weight satisfies the quadrangle inequality and interval
// monotonicity. W here is the demand CROSSING the segment boundary, which
// is submodular — the REVERSE inequality (a pair spanning two crossing
// segments is counted by both but by neither their union nor their
// intersection) — and non-monotone (W[1, n] = 0). Demand between distant
// endpoints pushes optimal roots outward to the segment edges, so windows
// bracketed by subproblem roots exclude true optima. This test locks a
// four-node counterexample where a full windowed DP (windows taken from
// its own subproblem roots, exactly as a Knuth implementation would) is
// strictly worse: 68 vs the true 47.
TEST(DpPruning, KnuthWindowUnsoundForCrossingDemand) {
  const int n = 4;
  DemandMatrix d(n);
  d.add(1, 4, 21);
  d.add(2, 4, 26);
  // Optimum (cost 47 = 21*2 + 5): e.g. root 4 with child 2, grandchildren
  // 1 and 3 — distance(1,4) = 2, distance(2,4) = 1. Both engines and the
  // cost-only entry agree.
  EXPECT_EQ(optimal_routing_based_tree(2, d, 1).total_distance, 47);
  EXPECT_EQ(optimal_routing_based_tree_reference(2, d, 1).total_distance, 47);
  EXPECT_EQ(optimal_routing_based_cost(2, d, 1), 47);

  // Windowed binary DP replica (k = 2 collapses the general recurrence to
  // c(i,j) = W(i,j) + min_r c(i,r-1) + c(r+1,j)).
  Cost c[n + 2][n + 2] = {};
  int root[n + 2][n + 2] = {};
  auto cc = [&](int i, int j) { return i > j ? Cost{0} : c[i][j]; };
  for (int len = 1; len <= n; ++len) {
    for (int i = 1; i + len - 1 <= n; ++i) {
      const int j = i + len - 1;
      int lo = i, hi = j;
      if (len >= 2) {
        lo = std::max(i, root[i][j - 1]);
        hi = std::min(j, root[i + 1][j]);
        if (hi < lo) std::swap(lo, hi);
      }
      Cost best = kInfiniteCost;
      int best_r = -1;
      for (int r = lo; r <= hi; ++r) {
        const Cost cand = d.boundary(i, j) + cc(i, r - 1) + cc(r + 1, j);
        if (cand < best) {
          best = cand;
          best_r = r;
        }
      }
      c[i][j] = best;
      root[i][j] = best_r;
    }
  }
  EXPECT_EQ(c[1][n], 68);  // strictly worse than the true optimum
  EXPECT_GT(c[1][n], Cost{47});
}

}  // namespace
}  // namespace san
