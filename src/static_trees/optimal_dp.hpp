// Offline optimal static routing-based k-ary search tree network
// (Theorem 2 / Appendix A.1).
//
// Dynamic programming over id segments: dp[t][i][j] is the minimal cost of
// partitioning segment [i, j] into t child trees, where the cost of a
// single tree on [i, j] includes W[i, j], the demand crossing the segment
// boundary (the potential of the edge to its future parent). The t = 1
// transition picks the root r and the number of children on each side
// (dl + dr <= k) using the prefix-minimum table dp2[t] = min_{y<=t} dp[y],
// which removes a factor k and yields O(n^3 k) time.
//
// Two implementations share this interface:
//
//  * optimal_routing_based_tree / optimal_routing_based_cost — the tiled
//    engine. Each cost table is stored once, packed upper-triangular
//    row-major; the (i, j) triangle is cut into square tiles, one
//    Executor round per tile-diagonal, and the bulk of every tile is a
//    register-blocked min-plus product of finished tiles that the
//    compiler vectorizes. The structurally dead t = k layer is dropped
//    (dp2 is only ever read at indices <= k-1 and tails at t-1 <= k-2,
//    see optimal_dp.cpp); the O(n^2 k) argmin/choice tables are gone
//    entirely — reconstruction re-derives each visited cell's argmin from
//    the retained cost tables with the original scan order, so the
//    produced tree is bit-identical to the reference.
//
//  * optimal_routing_based_tree_reference — the original per-length
//    vector-of-vectors implementation, kept as the differential oracle
//    (tests/test_dp_exhaustive.cpp, bench/dp_differential.cpp), called
//    directly and never by the public entry points.
//
// A note on what the rewrite deliberately does NOT do: Knuth/Yao
// quadrangle-inequality root pruning (restricting the root scan of [i, j]
// to [root(i, j-1), root(i+1, j)]) is UNSOUND for this cost model and is
// not used. The classic optimality proof needs the per-segment weight to
// satisfy the quadrangle inequality and interval monotonicity; W[i, j]
// here is the demand CROSSING the segment boundary, which is submodular
// (the reverse inequality: concentrated demand between distant endpoints
// makes a larger segment cheaper than its parts) and non-monotone
// (W[1, n] = 0). Optimal roots consequently jump outward, not inward.
// DpPruning.KnuthWindowUnsoundForCrossingDemand locks a concrete
// counterexample where the windowed DP returns a strictly worse cost.
#pragma once

#include "core/karytree.hpp"
#include "workload/demand_matrix.hpp"

namespace san {

struct OptimalTreeResult {
  KAryTree tree;
  Cost total_distance = 0;  ///< TotalDistance(D, tree); equals the DP value
};

/// Computes an optimal static routing-based k-ary search tree network for
/// demand `D`. `threads` = 0 uses all hardware threads.
OptimalTreeResult optimal_routing_based_tree(int k, const DemandMatrix& D,
                                             int threads = 0);

/// Cost of the optimal tree without materializing it: skips the
/// reconstruction pass (the forward tables are identical — the recurrence
/// reads every shorter prefix/suffix cell, so its live state is
/// inherently O(n^2 k); what both entries save over the reference is the
/// choice tables, the dead layer and the square storage: 2k-4 packed
/// tables (one at k = 2) of 8 bytes per cell, roughly 3.7x less than the
/// reference at k = 10 and 18x less at k = 2). Used by the optimality-gap
/// reporting paths where only the ratio matters.
Cost optimal_routing_based_cost(int k, const DemandMatrix& D,
                                int threads = 0);

/// The pre-rewrite implementation, kept as the differential oracle; see
/// the file comment.
OptimalTreeResult optimal_routing_based_tree_reference(int k,
                                                       const DemandMatrix& D,
                                                       int threads = 0);

}  // namespace san
