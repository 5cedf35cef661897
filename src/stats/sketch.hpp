// Deterministic, mergeable streaming summaries of pair-demand histograms.
//
// The rebalancer's exact window (workload/rebalance.hpp) keeps one flat,
// planner-ordered entry per distinct communicating pair, which is fine at
// n=10^3 but not at n=10^6, where a uniform background alone can touch
// ~window_capacity new pairs per epoch. These two sketches bound that
// state independently of n and m while preserving exactly what the
// planner consumes:
//   * CountMinSketch — point estimates of any pair's window weight
//     (overestimate by at most total_weight * e / width per row, min over
//     depth rows). Cells are doubles so the epoch decay is one multiply.
//   * SpaceSaving   — the top-k heavy pairs with per-entry error bounds;
//     its entry list replaces the exact window's ordered entries.
// Both are deterministic functions of the observation sequence: hashing is
// splitmix64 (core/rng.hpp) — never std::hash — and every eviction and
// merge tie-breaks on the key, so two runs (or two shards merging their
// summaries) agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace san {

/// Count-min sketch over 64-bit keys with double-valued cells.
///
/// estimate() never underestimates the true decayed weight; it
/// overestimates by at most (total weight) * depth-independent collision
/// mass — with width w and total weight W, each row's error is below
/// W * 2 / w with probability >= 1/2 per row, so the min over depth rows is
/// almost surely tight. Width is rounded up to a power of two so the row
/// index is a mask, not a modulo.
class CountMinSketch {
 public:
  /// `width` is rounded up to the next power of two (min 8); `depth` rows
  /// are hashed independently by salting splitmix64 with the row index and
  /// `seed`.
  CountMinSketch(std::size_t width, int depth, std::uint64_t seed = 0);

  void observe(std::uint64_t key, double weight);
  /// Point estimate: min over rows; >= the true accumulated weight.
  double estimate(std::uint64_t key) const;

  /// Multiplies every cell (and the running total) by `factor` — the
  /// epoch-boundary window decay in O(width * depth).
  void scale(double factor);
  /// Cell-wise sum. Throws TreeError unless width, depth and seed match:
  /// differently-shaped sketches do not share index functions.
  void merge(const CountMinSketch& other);
  void clear();

  std::size_t width() const { return width_; }
  int depth() const { return depth_; }
  std::uint64_t seed() const { return seed_; }
  /// Total observed weight (decayed with scale()); the error bound scales
  /// with it.
  double total_weight() const { return total_; }
  std::size_t memory_bytes() const { return cells_.size() * sizeof(double); }

 private:
  std::size_t cell_index(std::uint64_t key, int row) const;

  std::size_t width_ = 0;  ///< power of two
  std::uint64_t mask_ = 0;
  int depth_ = 0;
  std::uint64_t seed_ = 0;
  double total_ = 0.0;
  std::vector<double> cells_;  ///< depth_ rows of width_ cells
};

/// Space-saving heavy-hitters summary over 64-bit keys, capacity-bounded.
///
/// Tracks at most `capacity` keys. An observed key that is already tracked
/// gains its weight; an untracked key evicts the minimum-count entry
/// (deterministic victim: smallest count, then smallest key) and inherits
/// its count as the classical space-saving error bound. Guarantees:
/// count(key) >= true weight for tracked keys, and count - error <= true
/// weight <= count.
class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    double count = 0.0;  ///< upper bound on the key's true weight
    double error = 0.0;  ///< count - error lower-bounds the true weight
  };

  explicit SpaceSaving(std::size_t capacity);

  void observe(std::uint64_t key, double weight);

  bool contains(std::uint64_t key) const { return items_.count(key) != 0; }
  /// Tracked count (upper bound), or 0 for untracked keys.
  double count(std::uint64_t key) const;
  /// All tracked entries, heaviest first, (count desc, key asc) — the same
  /// deterministic order the exact window keeps its entries in.
  std::vector<Entry> entries() const;

  /// Multiplies every count and error by `factor` (epoch decay). Order is
  /// preserved, so this is O(k) plus one sorted rebuild.
  void scale(double factor);
  /// Drops entries whose count fell below `cut` (aged-out noise).
  void prune_below(double cut);
  /// Key-wise sum of counts and errors over the union, then the heaviest
  /// `capacity` keys are kept (ties broken toward smaller keys). When the
  /// union fits within capacity the merge is exact and associative
  /// bit-for-bit; beyond that the truncation is still a deterministic
  /// function of the two summaries.
  void merge(const SpaceSaving& other);
  void clear();

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Item {
    double count = 0.0;
    double error = 0.0;
  };

  std::size_t capacity_ = 0;
  std::unordered_map<std::uint64_t, Item> items_;
  /// (count, key) ascending: *begin() is the eviction victim; the key in
  /// the ordering makes every tie deterministic.
  std::set<std::pair<double, std::uint64_t>> order_;
};

}  // namespace san
