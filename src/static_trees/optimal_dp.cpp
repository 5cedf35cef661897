// Flat cache-blocked engine for the Theorem 2 DP. See optimal_dp.hpp for
// the interface story and optimal_dp_reference.cpp for the oracle this is
// tested against.
//
// What makes it fast (all of it exact — every cost cell is bit-identical
// to the reference, and the reconstructed tree is the same tree):
//
//  1. Dead-layer elimination. The recurrence only ever reads dp2[t] at
//     t <= k-1 (a root with children on both sides leaves dl, dr <= k-1;
//     with one side empty the id key occupies a router slot, capping the
//     other side at k-1) and dp[t-1] tails at t-1 <= k-2. The t = k layer
//     of the reference is write-only; this engine never computes it. At
//     k = 2 the entire t >= 2 pass disappears.
//
//  2. Structural infinity elimination. dp[t][i, j] is infinite exactly
//     when t > j-i+1 and dp2[t] is finite for every nonempty segment, so
//     ranging every scan over its feasible region removes all sentinel
//     comparisons from the inner loops: they become pure min-plus sweeps
//     (acc = min(acc, a[x] + b[x])) with no branches to mispredict and
//     nothing for the compiler to prove — they auto-vectorize.
//
//  3. Contiguity via paired mirrors. A cell (i, j) scans its own row
//     prefixes dp2[dl](i, r-1) — contiguous in row-major — and its own
//     column suffixes dp2[dr](r+1, j), which stride by n in row-major and
//     wreck the cache. Each cost table is therefore kept twice: packed
//     upper-triangular row-major (row i holds [i, i..n]) and transposed
//     column-major (column j holds [1..j, j]), written once per cell and
//     read only in the contiguous direction. Memory stays ~2.4x (k = 10)
//     to ~8.9x (k = 2) below the reference because of 1. and 4.
//
//  4. Choice-table elimination. The reference stores O(n^2 k) argmin
//     tables (root, dl, split, count) to rebuild the tree. Reconstruction
//     only visits O(n) cells, so this engine stores none of them and
//     re-derives each visited cell's argmin from the retained cost tables
//     with the reference's exact scan order (first strict improvement in
//     (r, dl) lexicographic order) — the resulting Shape is bit-identical.
//
//  5. Wavefront parallelism. Equal-length segments are independent; each
//     length-diagonal is one work-gated round on the persistent Executor
//     pool, with the pool's chunked cursor acting as the cache block:
//     consecutive cells of a diagonal touch consecutive rows/columns.
//
// Knuth/quadrangle-inequality root pruning is deliberately absent; it is
// unsound for crossing-demand weights (see optimal_dp.hpp and the
// DpPruning counterexample test).
#include "static_trees/optimal_dp.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/shape.hpp"

namespace san {
namespace {

// Packed-triangular cost tables in both orientations. Indices are 1-based
// segment endpoints 1 <= i <= j <= n.
struct FlatTables {
  int k, n;
  size_t cells;
  std::vector<size_t> row_off;  // row_off[i]: index of (i, i) in row-major
  std::vector<size_t> col_off;  // col_off[j]: index of (1, j) in col-major
  // dp[1] == dp2[1]; the pair of orientations shares one allocation each.
  std::vector<Cost> d1r, d1c;
  // dp[t] col-major for t = 2..k-2 (tail reads of the t-layer).
  std::vector<std::vector<Cost>> dtc;
  // dp2[t] row/col-major for t = 2..k-1 (combo reads of the t = 1 layer).
  std::vector<std::vector<Cost>> q2r, q2c;

  FlatTables(int k_in, int n_in)
      : k(k_in),
        n(n_in),
        cells(static_cast<size_t>(n_in) * (n_in + 1) / 2),
        row_off(static_cast<size_t>(n_in) + 2, 0),
        col_off(static_cast<size_t>(n_in) + 2, 0),
        dtc(static_cast<size_t>(k_in)),
        q2r(static_cast<size_t>(k_in)),
        q2c(static_cast<size_t>(k_in)) {
    for (int i = 2; i <= n + 1; ++i)
      row_off[static_cast<size_t>(i)] =
          row_off[static_cast<size_t>(i) - 1] + static_cast<size_t>(n - i + 2);
    for (int j = 1; j <= n + 1; ++j)
      col_off[static_cast<size_t>(j)] =
          static_cast<size_t>(j) * (j - 1) / 2;
    d1r.assign(cells, 0);
    d1c.assign(cells, 0);
    for (int t = 2; t <= k - 2; ++t) dtc[static_cast<size_t>(t)].assign(cells, 0);
    for (int t = 2; t <= k - 1; ++t) {
      q2r[static_cast<size_t>(t)].assign(cells, 0);
      q2c[static_cast<size_t>(t)].assign(cells, 0);
    }
  }

  size_t at_row(int i, int j) const {
    return row_off[static_cast<size_t>(i)] + static_cast<size_t>(j - i);
  }
  size_t at_col(int i, int j) const {
    return col_off[static_cast<size_t>(j)] + static_cast<size_t>(i - 1);
  }

  // dp2[t] base pointers (t == 1 aliases dp[1]).
  const Cost* q2_row(int t) const {
    return t == 1 ? d1r.data() : q2r[static_cast<size_t>(t)].data();
  }
  const Cost* q2_col(int t) const {
    return t == 1 ? d1c.data() : q2c[static_cast<size_t>(t)].data();
  }
  // dp[t] col-major base (t <= k-2).
  const Cost* dp_col(int t) const {
    return t == 1 ? d1c.data() : dtc[static_cast<size_t>(t)].data();
  }
};

void forward(FlatTables& T, const DemandMatrix& D, int threads) {
  const int n = T.n;
  const int k = T.k;
  for (int len = 1; len <= n; ++len) {
    // Work-gate the diagonal dispatch: a diagonal is n-len+1 cells of
    // O(len * k) min-plus elements each; short diagonals of small
    // instances stay inline on the caller.
    const long work = static_cast<long>(n - len + 1) * (len + k) * 2 * k;
    const int diag_threads = work < 8192 ? 1 : threads;
    parallel_for(1, n - len + 2, diag_threads, [&](long li) {
      const int i = static_cast<int>(li);
      const int j = i + len - 1;
      const Cost w = D.boundary(i, j);
      const size_t rij = T.at_row(i, j);
      const size_t cij = T.at_col(i, j);

      // ---- t = 1: root choice. Boundary roots (r = i / r = j) leave one
      // side empty and read dp2[k-1] of the other; interior roots combine
      // dp2[dl] row prefixes with dp2[k-dl] column suffixes. Sweeps run
      // in pairs: the average sweep is short enough that the fixed
      // per-sweep cost (pointer setup, vector prologue/epilogue) rivals
      // the arithmetic, and two independent min-reductions per pass halve
      // it.
      const size_t roi = T.row_off[static_cast<size_t>(i)];
      const size_t coj = T.col_off[static_cast<size_t>(j)];
      Cost v1;
      if (len == 1) {
        v1 = w;
      } else {
        const Cost* qr = T.q2_row(k - 1);
        const Cost* qc = T.q2_col(k - 1);
        Cost best = qc[T.at_col(i + 1, j)];                     // r = i
        best = std::min(best, qr[T.at_row(i, j - 1)]);          // r = j
        const long m = len - 2;  // interior roots r in (i, j)
        if (m > 0) {
          // pa[x] = dp2[dl](i, i+x), pb[x] = dp2[k-dl](i+2+x, j): the
          // candidate with root r = i+1+x. Pure min-plus sweeps.
          int dl = 1;
          for (; dl + 1 <= k - 1; dl += 2) {
            const Cost* pa1 = T.q2_row(dl) + roi;
            const Cost* pb1 = T.q2_col(k - dl) + coj + i + 1;
            const Cost* pa2 = T.q2_row(dl + 1) + roi;
            const Cost* pb2 = T.q2_col(k - dl - 1) + coj + i + 1;
            Cost acc1 = kInfiniteCost, acc2 = kInfiniteCost;
            for (long x = 0; x < m; ++x) {
              acc1 = std::min(acc1, pa1[x] + pb1[x]);
              acc2 = std::min(acc2, pa2[x] + pb2[x]);
            }
            best = std::min(best, std::min(acc1, acc2));
          }
          for (; dl <= k - 1; ++dl) {
            const Cost* pa = T.q2_row(dl) + roi;
            const Cost* pb = T.q2_col(k - dl) + coj + i + 1;
            Cost acc = kInfiniteCost;
            for (long x = 0; x < m; ++x) acc = std::min(acc, pa[x] + pb[x]);
            best = std::min(best, acc);
          }
        }
        v1 = w + best;
      }
      T.d1r[rij] = v1;
      T.d1c[cij] = v1;

      // ---- t = 2..k-1: first tree on a prefix [i, l], t-1 parts after.
      // dp2 folds as a running prefix minimum. Adjacent layers share the
      // dp[1] head row, so they also sweep in pairs (layer t scans one
      // element more than layer t+1; it is peeled off after the loop).
      Cost q = v1;
      const int tmax = std::min(k - 1, len);
      auto commit = [&](int t, Cost vt) {
        if (t <= k - 2) T.dtc[static_cast<size_t>(t)][cij] = vt;
        q = std::min(q, vt);
        T.q2r[static_cast<size_t>(t)][rij] = q;
        T.q2c[static_cast<size_t>(t)][cij] = q;
      };
      const Cost* pa = T.d1r.data() + roi;
      int t = 2;
      for (; t + 1 <= tmax; t += 2) {
        // pa[x] = dp[1](i, i+x), pb[x] = dp[t-1](i+1+x, j): split l=i+x.
        const Cost* pb1 = T.dp_col(t - 1) + coj + i;
        const Cost* pb2 = T.dp_col(t) + coj + i;
        const long m2 = len - t;  // layer t+1 range; layer t has one more
        Cost acc1 = kInfiniteCost, acc2 = kInfiniteCost;
        for (long x = 0; x < m2; ++x) {
          acc1 = std::min(acc1, pa[x] + pb1[x]);
          acc2 = std::min(acc2, pa[x] + pb2[x]);
        }
        acc1 = std::min(acc1, pa[m2] + pb1[m2]);
        commit(t, acc1);
        commit(t + 1, acc2);
      }
      for (; t <= k - 1; ++t) {
        Cost vt = kInfiniteCost;
        if (t <= tmax) {
          const Cost* pb = T.dp_col(t - 1) + coj + i;
          const long m = len - t + 1;
          Cost acc = kInfiniteCost;
          for (long x = 0; x < m; ++x) acc = std::min(acc, pa[x] + pb[x]);
          vt = acc;
        }
        commit(t, vt);
      }
    });
  }
}

// Reconstruction without choice tables: each visited cell's argmin is
// re-derived from the cost tables with the reference implementation's
// exact scan order, so tie-breaks — and therefore the tree — match the
// reference bit for bit. O(len * k) per tree node, O(n^2 k) worst case
// (a path tree), negligible against the forward pass.
struct Rebuilder {
  const FlatTables& T;
  int k;

  Cost dp2_at(int t, int a, int b) const {  // 1 <= t <= k-1, a <= b
    return T.q2_row(t)[T.at_row(a, b)];
  }
  Cost DP2(int t, int a, int b) const {
    if (a > b) return 0;
    if (t == 0) return kInfiniteCost;
    return dp2_at(t, a, b);
  }

  std::pair<int, int> root_and_dl(int i, int j) const {
    Cost best = kInfiniteCost;
    int best_r = -1, best_dl = -1;
    for (int r = i; r <= j; ++r) {
      for (int dl = 0; dl <= k - 1; ++dl) {
        const int dr = (dl == 0) ? k - 1 : k - dl;
        const Cost left = DP2(dl, i, r - 1);
        if (left >= kInfiniteCost) continue;
        const Cost cand = left + DP2(dr, r + 1, j);
        if (cand < best) {
          best = cand;
          best_r = r;
          best_dl = dl;
        }
      }
    }
    return {best_r, best_dl};
  }

  // First y <= budget with dp[y] at the prefix minimum: identical to the
  // reference's count_ argmin (first strict improvement over y).
  int count_of(int budget, int a, int b) const {
    const Cost target = dp2_at(budget, a, b);
    for (int y = 1; y < budget; ++y)
      if (dp2_at(y, a, b) == target) return y;
    return budget;
  }

  int split_of(int t, int i, int j) const {  // 2 <= t <= k-1
    const Cost* tail = T.dp_col(t - 1);
    Cost best = kInfiniteCost;
    int best_l = -1;
    for (int l = i; l <= j - (t - 1); ++l) {
      const Cost cand = T.d1r[T.at_row(i, l)] + tail[T.at_col(l + 1, j)];
      if (cand < best) {
        best = cand;
        best_l = l;
      }
    }
    return best_l;
  }

  Shape single(int i, int j) const {
    Shape s;
    const auto [r, dl] = root_and_dl(i, j);
    const int dr = (dl == 0) ? k - 1 : k - dl;
    int tl = 0, tr = 0;
    if (i <= r - 1) tl = count_of(dl, i, r - 1);
    if (r + 1 <= j) tr = count_of(dr, r + 1, j);
    parts(i, r - 1, tl, s.kids);
    s.self_pos = static_cast<int>(s.kids.size());
    parts(r + 1, j, tr, s.kids);
    s.size = j - i + 1;
    return s;
  }

  void parts(int i, int j, int t, std::vector<Shape>& out) const {
    while (t > 1) {
      const int l = split_of(t, i, j);
      out.push_back(single(i, l));
      i = l + 1;
      --t;
    }
    if (t == 1) out.push_back(single(i, j));
  }
};

}  // namespace

OptimalTreeResult optimal_routing_based_tree(int k, const DemandMatrix& D,
                                             int threads) {
  if (k < 2) throw TreeError("optimal_routing_based_tree: k must be >= 2");
  const int n = D.n();
  FlatTables T(k, n);
  D.prewarm();  // the lazy prefix build is not thread-safe
  forward(T, D, threads);
  Rebuilder rb{T, k};
  Shape shape = rb.single(1, n);
  shape.recompute_sizes();
  return {build_from_shape(k, shape), T.d1r[T.at_row(1, n)]};
}

Cost optimal_routing_based_cost(int k, const DemandMatrix& D, int threads) {
  if (k < 2) throw TreeError("optimal_routing_based_cost: k must be >= 2");
  const int n = D.n();
  FlatTables T(k, n);
  D.prewarm();
  forward(T, D, threads);
  return T.d1r[T.at_row(1, n)];
}

}  // namespace san
