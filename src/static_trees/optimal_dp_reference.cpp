// Reference implementation of the Theorem 2 DP — the pre-rewrite code,
// kept verbatim as the differential oracle for the tiled engine in
// optimal_dp.cpp. Slower (per-length vector-of-vectors tables,
// sentinel-guarded inner loops, O(n^2 k) choice tables) but maximally
// literal: every accessor matches the recurrence as written in the paper.
//
// tests/test_dp_exhaustive.cpp runs the rewritten engine against this
// oracle on hundreds of random demand matrices and asserts identical cost
// AND an identical reconstructed tree; bench/dp_differential.cpp repeats
// the check in Release as a CI smoke gate.
#include "static_trees/optimal_dp.hpp"

#include <algorithm>
#include <vector>

#include "core/parallel.hpp"
#include "core/shape.hpp"

namespace san {
namespace {

// Flattened tables indexed by (t, segment). Segment [i, j] with 1 <= i <=
// j <= n lives at (i-1)*n + (j-1); empty segments are resolved by the
// accessors, not stored.
class DpTables {
 public:
  DpTables(int k, int n)
      : k_(k),
        n_(n),
        dp_(static_cast<size_t>(k + 1), row(n)),
        dp2_(static_cast<size_t>(k + 1), row(n)),
        split_(static_cast<size_t>(k + 1),
               std::vector<int>(static_cast<size_t>(n) * n, -1)),
        count_(static_cast<size_t>(k + 1),
               std::vector<signed char>(static_cast<size_t>(n) * n, -1)),
        root_(static_cast<size_t>(n) * n, -1),
        dl_(static_cast<size_t>(n) * n, -1) {}

  size_t at(int i, int j) const {
    return static_cast<size_t>(i - 1) * n_ + (j - 1);
  }

  Cost dp(int t, int i, int j) const {
    if (i > j) return 0;
    if (t == 0) return kInfiniteCost;
    return dp_[static_cast<size_t>(t)][at(i, j)];
  }
  Cost dp2(int t, int i, int j) const {
    if (i > j) return 0;
    if (t == 0) return kInfiniteCost;
    return dp2_[static_cast<size_t>(t)][at(i, j)];
  }

  int k_, n_;
  std::vector<std::vector<Cost>> dp_, dp2_;
  std::vector<std::vector<int>> split_;          // argmin l for t >= 2
  std::vector<std::vector<signed char>> count_;  // argmin y for dp2[t]
  std::vector<int> root_;                        // argmin r for t = 1
  std::vector<int> dl_;                          // argmin dl for t = 1

 private:
  static std::vector<Cost> row(int n) {
    return std::vector<Cost>(static_cast<size_t>(n) * n, kInfiniteCost);
  }
};

// Reconstruction: walks the choice tables back into a Shape whose in-order
// id assignment is exactly 1..n (the DP's segment order).
struct Rebuilder {
  const DpTables& T;

  Shape single(int i, int j) const {
    Shape s;
    const size_t ij = T.at(i, j);
    const int r = T.root_[ij];
    const int dl = T.dl_[ij];
    const int dr = (dl == 0) ? T.k_ - 1 : T.k_ - dl;
    int tl = 0, tr = 0;
    if (i <= r - 1) tl = T.count_[static_cast<size_t>(dl)][T.at(i, r - 1)];
    if (r + 1 <= j) tr = T.count_[static_cast<size_t>(dr)][T.at(r + 1, j)];
    parts(i, r - 1, tl, s.kids);
    s.self_pos = static_cast<int>(s.kids.size());
    parts(r + 1, j, tr, s.kids);
    s.size = j - i + 1;
    return s;
  }

  void parts(int i, int j, int t, std::vector<Shape>& out) const {
    while (t > 1) {
      const int l = T.split_[static_cast<size_t>(t)][T.at(i, j)];
      out.push_back(single(i, l));
      i = l + 1;
      --t;
    }
    if (t == 1) out.push_back(single(i, j));
  }
};

}  // namespace

OptimalTreeResult optimal_routing_based_tree_reference(int k,
                                                       const DemandMatrix& D,
                                                       int threads) {
  const int n = D.n();
  if (k < 2) throw TreeError("optimal_routing_based_tree: k must be >= 2");
  DpTables T(k, n);
  D.prewarm();  // force the lazy prefix build before parallel access

  for (int len = 1; len <= n; ++len) {
    // A diagonal is n-len+1 segments of O(len*k + k^2) work each. The
    // executor pool makes a round cheap, but the shortest diagonals of a
    // small instance are still better off inline on the caller.
    const long work = static_cast<long>(n - len + 1) * (len + k) * k;
    const int diag_threads = work < 8192 ? 1 : threads;
    parallel_for(1, n - len + 2, diag_threads, [&](long li) {
      const int i = static_cast<int>(li);
      const int j = i + len - 1;
      const size_t ij = T.at(i, j);
      const Cost w = D.boundary(i, j);

      // t = 1: choose root r and children split. The root's id is itself a
      // boundary: with children on both sides it separates the left and
      // right groups (dl + dr <= k uses dl + dr - 1 <= k - 1 keys), but
      // with all children on one side the id key occupies an extra slot,
      // capping that side at k - 1 (dp2 being a prefix minimum covers every
      // dl' <= dl, dr' <= dr).
      Cost best = kInfiniteCost;
      int best_r = -1, best_dl = -1;
      for (int r = i; r <= j; ++r) {
        for (int dl = 0; dl <= k - 1; ++dl) {
          const int dr = (dl == 0) ? k - 1 : k - dl;
          const Cost left = T.dp2(dl, i, r - 1);
          if (left >= kInfiniteCost) continue;
          const Cost right = T.dp2(dr, r + 1, j);
          if (right >= kInfiniteCost) continue;
          const Cost cand = left + right + w;
          if (cand < best) {
            best = cand;
            best_r = r;
            best_dl = dl;
          }
        }
      }
      T.dp_[1][ij] = best;
      T.root_[ij] = best_r;
      T.dl_[ij] = best_dl;

      // t >= 2: first tree on a prefix [i, l], remaining t-1 parts after.
      const int tmax = std::min(k, len);
      for (int t = 2; t <= tmax; ++t) {
        Cost best_t = kInfiniteCost;
        int best_l = -1;
        for (int l = i; l <= j - (t - 1); ++l) {
          const Cost head = T.dp_[1][T.at(i, l)];
          const Cost tail = T.dp_[static_cast<size_t>(t - 1)][T.at(l + 1, j)];
          if (head >= kInfiniteCost || tail >= kInfiniteCost) continue;
          const Cost cand = head + tail;
          if (cand < best_t) {
            best_t = cand;
            best_l = l;
          }
        }
        T.dp_[static_cast<size_t>(t)][ij] = best_t;
        T.split_[static_cast<size_t>(t)][ij] = best_l;
      }

      Cost run = kInfiniteCost;
      signed char argmin = -1;
      for (int t = 1; t <= k; ++t) {
        if (T.dp_[static_cast<size_t>(t)][ij] < run) {
          run = T.dp_[static_cast<size_t>(t)][ij];
          argmin = static_cast<signed char>(t);
        }
        T.dp2_[static_cast<size_t>(t)][ij] = run;
        T.count_[static_cast<size_t>(t)][ij] = argmin;
      }
    });
  }

  Rebuilder rb{T};
  Shape shape = rb.single(1, n);
  shape.recompute_sizes();
  OptimalTreeResult res{build_from_shape(k, shape),
                        T.dp_[1][T.at(1, n)]};
  return res;
}

}  // namespace san
