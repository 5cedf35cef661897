// Tiled engine for the Theorem 2 DP. See optimal_dp.hpp for the interface
// story and optimal_dp_reference.cpp for the oracle this is tested against.
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
//  2. Every split is one min-plus product. With s the split point, cell
//     (i, j) is a minimum over s of
//       t = 1:  dp2[dl](i, s) + dp2[k-dl](s+2, j)   (root s+1, dl = 1..k-1)
//       t >= 2: dp[1](i, s)   + dp[t-1](s+1, j)     (first tree on [i, s])
//     plus the two boundary roots r = i and r = j. dp[t] is stored as
//     kInfiniteCost wherever t > len, and kPad kInfiniteCost pad cells sit
//     left of each row's diagonal, so every kernel folds a split into a
//     whole tile row: a split that is infeasible for a cell, or lies at
//     or right of it, sums to >= kInfiniteCost and never wins, and no
//     kernel needs a per-cell bound. Two such values sum to at most
//     max/2, so nothing overflows.
//
//  3. Tile-diagonal schedule. The (i, j) triangle is cut into kTile x kTile
//     tiles; the tiles of one tile-diagonal are independent and run as one
//     work-sharing round on the persistent Executor pool. Tile (P, Q) first
//     folds in the splits that lie in the tiles strictly between P and Q,
//     where every operand is a finished tile: a register-blocked min-plus
//     product (block_product). It then finishes its rows bottom-up,
//     kBlockRows at a time. A block pulls the splits in tile P below it
//     with the same kernel (their right-hand rows are final), each of its
//     rows pulls the few splits left inside the block, and each cell,
//     once final, pushes itself along its row as the split for the cells
//     right of it in tile Q (fold_split). Diagonal tiles only push. The
//     order of a minimum over integers does not matter, so the schedule
//     changes no cell.
//
//  4. One orientation. Each table is packed upper-triangular row-major,
//     every row running to the last column of the last tile (the cells
//     past n are scratch that nothing real reads). The kernels read rows
//     only; tile reuse, not a transposed copy, keeps the column operand
//     in cache.
//
//  5. Choice-table elimination. The reference stores O(n^2 k) argmin
//     tables (root, dl, split, count) to rebuild the tree. Reconstruction
//     only visits O(n) cells, so this engine stores none of them and
//     re-derives each visited cell's argmin from the retained cost tables
//     with the reference's exact scan order (first strict improvement in
//     (r, dl) lexicographic order) — the resulting Shape is bit-identical.
//
// Knuth/quadrangle-inequality root pruning is deliberately absent; it is
// unsound for crossing-demand weights (see optimal_dp.hpp and the
// DpPruning counterexample test).
#include "static_trees/optimal_dp.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/shape.hpp"

namespace san {
namespace {

// Tile edge of the forward schedule.
constexpr int kTile = 32;
// Pad cells left of each row's diagonal: a split s in tile Q reads row
// s+2 from the tile's first column on, at most kTile+1 left of s+2.
constexpr int kPad = kTile + 1;

// 64-bit lanes of the widest vector register with a 64-bit integer min
// or compare the target compiles for (AVX-512 has vpminsq; baseline
// x86-64 has neither, so its min is a scalar cmov).
#if defined(__AVX512F__)
constexpr int kLanes = 8;
#elif defined(__AVX2__)
constexpr int kLanes = 4;
#else
constexpr int kLanes = 1;
#endif

// Accumulator block of the min-plus kernel: four vectors per row, and as
// many rows as fit in registers beside the column operand: 4 x 32 under
// AVX-512 (16 of its 32 zmm registers), 2 x 16 under AVX2, 2 x 4 on
// baseline x86-64. Each was the fastest shape tried on its target at
// n = 1024, k = 4.
constexpr int kBlockCols = 4 * kLanes;
constexpr int kBlockRows = kLanes >= 8 ? 4 : 2;
static_assert(kTile % kBlockCols == 0 && kTile % kBlockRows == 0);

// Packed row-major cost tables. Row i (1 <= i <= n+1) holds columns
// i-kPad (the pads) through the last column of the last tile; row n+1
// holds only pads and scratch.
struct Tables {
  int k, n;
  int tiles;  // ceil(n / kTile)
  std::vector<std::ptrdiff_t> row;  // row[i]: index of (i, 0)
  std::vector<Cost> d1;             // dp[1] == dp2[1]
  // dp[t] for t = 2..k-2 (the tails of the t >= 2 products).
  std::vector<std::vector<Cost>> dt;
  // dp2[t] for t = 2..k-1. dp2[k-1] doubles as dp[k-1]'s accumulator
  // until its cell is final; dp[t] for t <= k-2 accumulates in dt[t].
  std::vector<std::vector<Cost>> q2;

  Tables(int k_in, int n_in)
      : k(k_in),
        n(n_in),
        tiles((n_in + kTile - 1) / kTile),
        row(static_cast<size_t>(n_in) + 2, 0),
        dt(static_cast<size_t>(k_in)),
        q2(static_cast<size_t>(k_in)) {
    const int width = tiles * kTile;
    std::ptrdiff_t base = 0;
    for (int i = 1; i <= n + 1; ++i) {
      row[static_cast<size_t>(i)] = base - (i - kPad);
      base += width - i + 1 + kPad;
    }
    const auto cells = static_cast<size_t>(base);
    d1.assign(cells, kInfiniteCost);
    for (int t = 2; t <= k - 2; ++t)
      dt[static_cast<size_t>(t)].assign(cells, kInfiniteCost);
    for (int t = 2; t <= k - 1; ++t)
      q2[static_cast<size_t>(t)].assign(cells, kInfiniteCost);
  }

  std::ptrdiff_t at(int i, int j) const {
    return row[static_cast<size_t>(i)] + j;
  }
  // dp2[t] (t == 1 aliases dp[1]).
  Cost* dp2(int t) {
    return t == 1 ? d1.data() : q2[static_cast<size_t>(t)].data();
  }
  const Cost* dp2(int t) const {
    return t == 1 ? d1.data() : q2[static_cast<size_t>(t)].data();
  }
  // dp[t] for t <= k-2.
  const Cost* dp(int t) const {
    return t == 1 ? d1.data() : dt[static_cast<size_t>(t)].data();
  }
  // Where dp[t] accumulates, t = 2..k-1.
  Cost* acc(int t) {
    return t <= k - 2 ? dt[static_cast<size_t>(t)].data()
                      : q2[static_cast<size_t>(t)].data();
  }
};

// One min-plus product term: C(i, j) = min(C(i, j), A(i, s) + B(s+shift, j)).
struct Product {
  Cost* c;
  const Cost* a;
  const Cost* b;
  int shift;
};

// The 2k-3 products of the recurrence (item 2 of the file comment).
std::vector<Product> products(Tables& T) {
  std::vector<Product> out;
  for (int dl = 1; dl <= T.k - 1; ++dl)
    out.push_back({T.d1.data(), T.dp2(dl), T.dp2(T.k - dl), 2});
  for (int t = 2; t <= T.k - 1; ++t)
    out.push_back({T.acc(t), T.d1.data(), T.dp(t - 1), 1});
  return out;
}

// Register-blocked min-plus kernel: for the kBlockRows rows from i0 and
// the kBlockCols columns from j0, folds in the splits s in [s0, s1). The
// accumulator stays in registers for the whole split range; each split
// loads one row segment of B and one cell of A per row.
void block_product(const Tables& T, const Product& p, int i0, int j0, int s0,
                   int s1) {
  const std::ptrdiff_t* row = T.row.data();
  const Cost* b_rows = p.b + j0;  // b_rows + row[s'] is B(s', j0)
  Cost acc[kBlockRows][kBlockCols];
  const Cost* a[kBlockRows];
  for (int r = 0; r < kBlockRows; ++r) {
    a[r] = p.a + row[i0 + r];
    const Cost* c = p.c + row[i0 + r] + j0;
    for (int x = 0; x < kBlockCols; ++x) acc[r][x] = c[x];
  }
  for (int s = s0; s < s1; ++s) {
    const Cost* b = b_rows + row[s + p.shift];
    for (int r = 0; r < kBlockRows; ++r) {
      const Cost av = a[r][s];
      for (int x = 0; x < kBlockCols; ++x)
        acc[r][x] = std::min(acc[r][x], av + b[x]);
    }
  }
  for (int r = 0; r < kBlockRows; ++r) {
    Cost* c = p.c + row[i0 + r] + j0;
    for (int x = 0; x < kBlockCols; ++x) c[x] = acc[r][x];
  }
}

// One split s for the kTile cells (i, j0..): the single-row, single-split
// form of block_product, for the splits it leaves over.
void fold_split(const Tables& T, const Product& p, int i, int s, int j0) {
  const Cost av = p.a[T.at(i, s)];
  const Cost* b = p.b + T.at(s + p.shift, j0);
  Cost* c = p.c + T.at(i, j0);
  for (int x = 0; x < kTile; ++x) c[x] = std::min(c[x], av + b[x]);
}

// Cell (i, j) once every split has been folded in: adds the boundary
// roots and W, then the dp2 prefix minima.
void finish_cell(Tables& T, const DemandMatrix& D, int i, int j) {
  const std::ptrdiff_t ij = T.at(i, j);
  Cost v1 = D.boundary(i, j);
  if (i < j) {
    const Cost* q = T.dp2(T.k - 1);
    v1 += std::min({T.d1[static_cast<size_t>(ij)], q[T.at(i + 1, j)],
                    q[T.at(i, j - 1)]});  // splits, r = i, r = j
  }
  T.d1[static_cast<size_t>(ij)] = v1;
  Cost q = v1;
  for (int t = 2; t <= T.k - 1; ++t) {
    q = std::min(q, T.acc(t)[ij]);
    T.dp2(t)[ij] = q;
  }
}

void run_tile(Tables& T, const std::vector<Product>& prods,
              const DemandMatrix& D, int P, int Q) {
  const int p0 = P * kTile + 1, p1 = std::min(T.n, p0 + kTile - 1);
  const int q0 = Q * kTile + 1, q1 = std::min(T.n, q0 + kTile - 1);
  // Rows [r0, r1) of the tile, splits [s0, s1). Product-major, so one
  // product's column operand stays in cache across the row blocks.
  auto block_rows = [&](int r0, int r1, int s0, int s1) {
    for (const Product& p : prods)
      for (int j0 = q0; j0 < q0 + kTile; j0 += kBlockCols)
        for (int i0 = r0; i0 < r1; i0 += kBlockRows)
          block_product(T, p, i0, j0, s0, s1);
  };
  // Between the tiles: the splits in P < M < Q. P is then a full tile
  // (only the last tile is partial) and every operand is final.
  if (Q - P >= 2) block_rows(p0, p1 + 1, p1 + 1, q0);
  // Inside the tile, bottom-up, a block of kBlockRows rows at a time.
  for (int i0 = p0 + (p1 - p0) / kBlockRows * kBlockRows; i0 >= p0;
       i0 -= kBlockRows) {
    const int below = std::min(i0 + kBlockRows, p1 + 1);
    // Pull the splits in tile P: first, as one block, those below the
    // block, whose right-hand rows are final; then, row by row, the rest.
    if (P < Q && below <= p1) block_rows(i0, below, below, p1 + 1);
    for (int i = below - 1; i >= i0; --i) {
      if (P < Q)
        for (const Product& p : prods)
          for (int s = i; s < below; ++s) fold_split(T, p, i, s, q0);
      // Left to right, each final cell pushes itself as the split for
      // the cells right of it in tile Q (to its left, it meets pads).
      for (int j = std::max(i, q0); j <= q1; ++j) {
        finish_cell(T, D, i, j);
        if (j < q1)
          for (const Product& p : prods) fold_split(T, p, i, j, q0);
      }
    }
  }
}

void forward(Tables& T, const DemandMatrix& D, int threads) {
  const std::vector<Product> prods = products(T);
  for (int d = 0; d < T.tiles; ++d) {
    parallel_for(0, T.tiles - d, threads, [&](long p) {
      const int P = static_cast<int>(p);
      run_tile(T, prods, D, P, P + d);
    });
  }
}

// Reconstruction without choice tables: each visited cell's argmin is
// re-derived from the cost tables with the reference implementation's
// exact scan order, so tie-breaks — and therefore the tree — match the
// reference bit for bit. O(len * k) per tree node, O(n^2 k) worst case
// (a path tree), negligible against the forward pass.
struct Rebuilder {
  const Tables& T;
  int k;

  Cost dp2_at(int t, int a, int b) const {  // 1 <= t <= k-1, a <= b
    return T.dp2(t)[T.at(a, b)];
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
    const Cost* tail = T.dp(t - 1);
    Cost best = kInfiniteCost;
    int best_l = -1;
    for (int l = i; l <= j - (t - 1); ++l) {
      const Cost cand = T.d1[static_cast<size_t>(T.at(i, l))] +
                        tail[T.at(l + 1, j)];
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
  Tables T(k, n);
  D.prewarm();  // the lazy prefix build is not thread-safe
  forward(T, D, threads);
  Rebuilder rb{T, k};
  Shape shape = rb.single(1, n);
  shape.recompute_sizes();
  return {build_from_shape(k, shape), T.d1[static_cast<size_t>(T.at(1, n))]};
}

Cost optimal_routing_based_cost(int k, const DemandMatrix& D, int threads) {
  if (k < 2) throw TreeError("optimal_routing_based_cost: k must be >= 2");
  const int n = D.n();
  Tables T(k, n);
  D.prewarm();
  forward(T, D, threads);
  return T.d1[static_cast<size_t>(T.at(1, n))];
}

}  // namespace san
