// Zipf / power-law sampling used by the trace generators.
//
// P(rank r) ~ 1 / r^alpha over ranks 1..n, sampled from the precomputed
// CDF through a guide table (Chen and Asau's indexed search, 1974): the
// variate's bucket floor(u * n) names where a forward scan starts. The n
// equally likely buckets share the n CDF entries, so a draw is O(1)
// expected time, and it returns exactly std::lower_bound's rank (argued
// at the build loop). Rank-to-item shuffling is left to the callers so
// that "popular" ids are not clustered in id space (which would
// unrealistically favour search-tree locality).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace san {

class ZipfSampler {
 public:
  ZipfSampler(int n, double alpha) {
    if (n < 1 || !std::isfinite(alpha))
      throw TreeError("ZipfSampler needs n >= 1 and a finite alpha");
    cdf_.resize(static_cast<size_t>(n));
    double acc = 0.0;
    for (int r = 1; r <= n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r), alpha);
      cdf_[static_cast<size_t>(r - 1)] = acc;
    }
    if (!std::isfinite(acc))  // only a negative alpha overflows a weight
      throw TreeError("ZipfSampler: the weights overflow for this alpha");
    for (double& x : cdf_) x /= acc;

    // guide_[j] is the first index i with bucket(cdf_[i]) >= j. A draw
    // scans forward from g = guide_[bucket(u)] while cdf_[i] < u. bucket is
    // monotone (a multiply by a positive constant and a truncation both
    // are), so lower_bound's index L, the first i with cdf_[i] >= u, has
    // bucket(cdf_[L]) >= bucket(u), hence g <= L: the scan passes only
    // values below u and stops exactly at L, with no step back. cdf_[n-1]
    // is acc / acc == 1.0 >= u, so the scan stays inside cdf_; this loop
    // does too, since bucket(1.0) == n.
    guide_.resize(cdf_.size() + 1);
    size_t i = 0;
    for (size_t j = 0; j < guide_.size(); ++j) {
      while (bucket(cdf_[i]) < j) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
  }

  /// The rank whose CDF interval holds u, for u in [0, 1]: 1 plus the
  /// index std::lower_bound(cdf().begin(), cdf().end(), u) finds.
  int rank(double u) const {
    size_t i = guide_[bucket(u)];
    while (cdf_[i] < u) ++i;
    return static_cast<int>(i) + 1;
  }

  /// Returns a rank in [1, n]. The variate comes from uniform_open (raw
  /// top-53-bit construction), not std::uniform_real_distribution, so the
  /// rank sequence depends only on the engine's words.
  int operator()(std::mt19937_64& rng) const {
    return rank(uniform_open(rng));
  }

  int n() const { return static_cast<int>(cdf_.size()); }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  size_t bucket(double x) const {
    return static_cast<size_t>(x * static_cast<double>(cdf_.size()));
  }

  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

}  // namespace san
