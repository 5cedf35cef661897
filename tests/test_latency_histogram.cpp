// LatencyHistogram: bucket geometry, quantile accuracy, mergeability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "stats/latency_histogram.hpp"

namespace san {
namespace {

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, BucketGeometry) {
  // The linear region is exact; every value maps into a bucket whose
  // [low, low + width) range contains it, and indices are monotone.
  for (std::uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(LatencyHistogram::bucket_low(idx), v);
    EXPECT_EQ(LatencyHistogram::bucket_mid(idx), v);
  }
  std::size_t prev = 0;
  for (std::uint64_t v :
       {std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{63},
        std::uint64_t{64}, std::uint64_t{100}, std::uint64_t{1000},
        std::uint64_t{123456}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 63) + 12345, ~std::uint64_t{0}}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    EXPECT_GE(idx, prev);
    prev = idx;
    EXPECT_LE(LatencyHistogram::bucket_low(idx), v);
    // The last bucket's upper edge is 2^64 (not representable); skip it.
    if (idx + 1 < LatencyHistogram::kBuckets) {
      EXPECT_GT(LatencyHistogram::bucket_low(idx + 1), v);
    }
  }
}

TEST(LatencyHistogram, SmallValuesExact) {
  LatencyHistogram h;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 10u, 31u}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(1.0), 31u);
  EXPECT_DOUBLE_EQ(h.mean(), 47.0 / 6.0);
}

// Quantiles over wide-range values stay within the 2^-5 relative error
// the sub-bucket resolution promises, checked against the exact order
// statistics of the same sample.
TEST(LatencyHistogram, QuantileRelativeErrorBound) {
  std::mt19937_64 rng(7);
  LatencyHistogram h;
  std::vector<std::uint64_t> values;
  values.reserve(100000);
  // Log-uniform over ~6 decades, the shape of a latency distribution
  // with a heavy tail.
  std::uniform_real_distribution<double> exponent(2.0, 9.0);
  for (int i = 0; i < 100000; ++i) {
    const auto v =
        static_cast<std::uint64_t>(std::pow(10.0, exponent(rng)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::uint64_t exact = values[rank == 0 ? 0 : rank - 1];
    const std::uint64_t approx = h.quantile(q);
    const double rel =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LE(rel, 1.0 / 32.0) << "q=" << q << " exact=" << exact
                               << " approx=" << approx;
  }
  // Quantiles are monotone in q.
  EXPECT_LE(h.p50(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
  EXPECT_LE(h.min(), h.p50());
}

// merge() must equal recording both streams into one histogram —
// bucket-exact, not approximately: this is what makes per-shard
// histograms a mergeable summary for global quantiles.
TEST(LatencyHistogram, MergeEqualsConcatenation) {
  std::mt19937_64 rng(11);
  LatencyHistogram a, b, both;
  std::uniform_int_distribution<std::uint64_t> dist(0, 50'000'000);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = dist(rng);
    if (i % 3 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    both.record(v);
  }
  LatencyHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_EQ(merged.min(), both.min());
  EXPECT_EQ(merged.max(), both.max());
  EXPECT_DOUBLE_EQ(merged.mean(), both.mean());
  for (double q = 0.0; q <= 1.0; q += 0.01)
    EXPECT_EQ(merged.quantile(q), both.quantile(q)) << "q=" << q;
}

TEST(LatencyHistogram, MergeEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.record(42);
  h.record(1000);
  LatencyHistogram copy = h;
  copy.merge(empty);
  EXPECT_EQ(copy.count(), 2u);
  EXPECT_EQ(copy.min(), 42u);
  EXPECT_EQ(copy.max(), 1000u);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.min(), 42u);
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.record(123456789);
  EXPECT_EQ(h.count(), 1u);
  // Every quantile of a single observation is that observation, clamped
  // to the exact min/max rather than the bucket midpoint.
  EXPECT_EQ(h.quantile(0.0), 123456789u);
  EXPECT_EQ(h.quantile(1.0), 123456789u);
  EXPECT_GE(h.quantile(0.5), 123456789u * 31 / 32);
  EXPECT_LE(h.quantile(0.5), 123456789u * 33 / 32);
}

}  // namespace
}  // namespace san
