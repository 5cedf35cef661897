// Differential wall for the streaming summaries (stats/sketch.hpp): the
// sketches are checked against exact histograms, not against hand-picked
// outputs, so every guarantee the rebalancer leans on (no underestimates,
// bounded overestimates, exact-order heavy hitters, bit-identical merges)
// is exercised with real skewed traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "core/rng.hpp"
#include "core/types.hpp"
#include "stats/sketch.hpp"
#include "workload/zipf.hpp"

namespace san {
namespace {

/// Deterministic skewed key stream: Zipf ranks mixed through splitmix64 so
/// keys are spread over the full 64-bit space like real pair keys are.
std::vector<std::uint64_t> zipf_keys(std::size_t m, int universe, double s,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ZipfSampler zipf(universe, s);
  std::vector<std::uint64_t> keys;
  keys.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    keys.push_back(splitmix64_mix(static_cast<std::uint64_t>(zipf(rng))));
  return keys;
}

std::map<std::uint64_t, double> exact_histogram(
    const std::vector<std::uint64_t>& keys) {
  std::map<std::uint64_t, double> h;
  for (std::uint64_t k : keys) h[k] += 1.0;
  return h;
}

TEST(SketchCountMin, NeverUnderestimatesAndMeetsTheErrorBound) {
  const auto keys = zipf_keys(20000, 400, 1.2, 11);
  const auto exact = exact_histogram(keys);
  CountMinSketch cm(1024, 4, 99);
  for (std::uint64_t k : keys) cm.observe(k, 1.0);

  EXPECT_DOUBLE_EQ(cm.total_weight(), static_cast<double>(keys.size()));
  // Classical CM guarantee: estimate in [true, true + eps * W] with
  // probability 1 - delta where eps = e / width. With depth 4 a violation
  // is (< 1/2)^4 per key; over 400 keys with a fixed seed this is a
  // deterministic check, not a flaky probabilistic one.
  const double eps_w =
      std::exp(1.0) / static_cast<double>(cm.width()) * cm.total_weight();
  for (const auto& [key, true_w] : exact) {
    const double est = cm.estimate(key);
    EXPECT_GE(est, true_w) << key;
    EXPECT_LE(est, true_w + eps_w) << key;
  }
  // Untracked keys may collide into nonzero cells but never exceed the
  // same bound above a true weight of zero.
  for (std::uint64_t probe : {std::uint64_t{1}, std::uint64_t{424242}}) {
    if (exact.count(splitmix64_mix(probe)) == 0) {
      EXPECT_LE(cm.estimate(splitmix64_mix(probe)), eps_w);
    }
  }
}

TEST(SketchCountMin, ScaleDecaysEveryEstimate) {
  const auto keys = zipf_keys(5000, 100, 1.1, 3);
  const auto exact = exact_histogram(keys);
  CountMinSketch cm(512, 4, 7);
  for (std::uint64_t k : keys) cm.observe(k, 1.0);
  std::map<std::uint64_t, double> before;
  for (const auto& [key, w] : exact) before[key] = cm.estimate(key);
  cm.scale(0.5);
  EXPECT_DOUBLE_EQ(cm.total_weight(), static_cast<double>(keys.size()) * 0.5);
  for (const auto& [key, est] : before)
    EXPECT_DOUBLE_EQ(cm.estimate(key), est * 0.5) << key;
}

TEST(SketchCountMin, MergeIsBitIdenticalToObservingTheConcatenation) {
  const auto a = zipf_keys(4000, 200, 1.3, 21);
  const auto b = zipf_keys(4000, 200, 1.3, 22);
  CountMinSketch whole(512, 4, 5), left(512, 4, 5), right(512, 4, 5);
  for (std::uint64_t k : a) {
    whole.observe(k, 1.0);
    left.observe(k, 1.0);
  }
  for (std::uint64_t k : b) {
    whole.observe(k, 1.0);
    right.observe(k, 1.0);
  }
  left.merge(right);
  EXPECT_EQ(left.total_weight(), whole.total_weight());
  for (std::uint64_t k : a) EXPECT_EQ(left.estimate(k), whole.estimate(k));
  for (std::uint64_t k : b) EXPECT_EQ(left.estimate(k), whole.estimate(k));

  CountMinSketch mismatched(256, 4, 5);
  EXPECT_THROW(left.merge(mismatched), TreeError);
  CountMinSketch wrong_seed(512, 4, 6);
  EXPECT_THROW(left.merge(wrong_seed), TreeError);
}

TEST(SketchSpaceSaving, ExactWhenTheUniverseFitsCapacity) {
  const auto keys = zipf_keys(10000, 50, 1.0, 13);
  const auto exact = exact_histogram(keys);
  ASSERT_LE(exact.size(), 64u);
  SpaceSaving ss(64);
  for (std::uint64_t k : keys) ss.observe(k, 1.0);
  EXPECT_EQ(ss.size(), exact.size());
  for (const auto& [key, w] : exact) {
    EXPECT_DOUBLE_EQ(ss.count(key), w) << key;
  }
  for (const SpaceSaving::Entry& e : ss.entries())
    EXPECT_DOUBLE_EQ(e.error, 0.0) << e.key;
}

TEST(SketchSpaceSaving, TopRanksMatchExactCountsOnSkewedTraffic) {
  // Zipf(1.4) over 1000 ranks through a capacity-256 summary: the classical
  // guarantee count - error <= true <= count must hold for every survivor,
  // and the heavy head (well above the eviction floor) must rank exactly
  // as the true histogram does.
  const auto keys = zipf_keys(50000, 1000, 1.4, 17);
  const auto exact = exact_histogram(keys);
  SpaceSaving ss(256);
  for (std::uint64_t k : keys) ss.observe(k, 1.0);
  EXPECT_EQ(ss.size(), 256u);

  const auto entries = ss.entries();
  for (const SpaceSaving::Entry& e : entries) {
    const auto it = exact.find(e.key);
    const double true_w = it == exact.end() ? 0.0 : it->second;
    EXPECT_GE(e.count + 1e-9, true_w) << e.key;
    EXPECT_LE(e.count - e.error, true_w + 1e-9) << e.key;
  }

  // True top-16 by (weight desc, key asc), exactly the summary's order.
  std::vector<std::pair<double, std::uint64_t>> top;
  for (const auto& [key, w] : exact) top.push_back({w, key});
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(entries[i].key, top[i].second) << i;
    EXPECT_DOUBLE_EQ(entries[i].count - entries[i].error, top[i].first) << i;
  }
}

TEST(SketchSpaceSaving, ScaleAndPruneAgeOutTheTail) {
  SpaceSaving ss(8);
  for (int i = 1; i <= 4; ++i)
    for (int rep = 0; rep < i; ++rep)
      ss.observe(static_cast<std::uint64_t>(i), 1.0);
  ss.scale(0.5);
  EXPECT_DOUBLE_EQ(ss.count(1), 0.5);
  EXPECT_DOUBLE_EQ(ss.count(4), 2.0);
  ss.prune_below(1.0);
  EXPECT_FALSE(ss.contains(1));
  EXPECT_TRUE(ss.contains(2));  // exactly at the cut survives
  EXPECT_TRUE(ss.contains(4));
  EXPECT_EQ(ss.size(), 3u);
}

TEST(SketchSpaceSaving, MergeIsExactAndAssociativeWithinCapacity) {
  // Three shards' summaries whose union fits capacity: merging must equal
  // the exact union regardless of association order, bit for bit.
  const auto a = zipf_keys(3000, 30, 1.0, 31);
  const auto b = zipf_keys(3000, 30, 1.0, 32);
  const auto c = zipf_keys(3000, 30, 1.0, 33);
  auto summarize = [](const std::vector<std::uint64_t>& keys) {
    SpaceSaving s(128);
    for (std::uint64_t k : keys) s.observe(k, 1.0);
    return s;
  };
  SpaceSaving ab_c = summarize(a);
  ab_c.merge(summarize(b));
  ab_c.merge(summarize(c));
  SpaceSaving bc = summarize(b);
  bc.merge(summarize(c));
  SpaceSaving a_bc = summarize(a);
  a_bc.merge(bc);

  const auto left = ab_c.entries(), right = a_bc.entries();
  ASSERT_EQ(left.size(), right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].key, right[i].key) << i;
    EXPECT_EQ(left[i].count, right[i].count) << i;  // bit-identical
    EXPECT_EQ(left[i].error, right[i].error) << i;
  }

  std::vector<std::uint64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  for (const auto& [key, w] : exact_histogram(all))
    EXPECT_DOUBLE_EQ(ab_c.count(key), w) << key;
}

TEST(SketchDeterminism, IdenticalStreamsProduceIdenticalSummaries) {
  const auto keys = zipf_keys(8000, 300, 1.2, 41);
  CountMinSketch cm1(256, 4, 9), cm2(256, 4, 9);
  SpaceSaving ss1(64), ss2(64);
  for (std::uint64_t k : keys) {
    cm1.observe(k, 1.0);
    cm2.observe(k, 1.0);
    ss1.observe(k, 1.0);
    ss2.observe(k, 1.0);
  }
  for (std::uint64_t k : keys) EXPECT_EQ(cm1.estimate(k), cm2.estimate(k));
  const auto e1 = ss1.entries(), e2 = ss2.entries();
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].key, e2[i].key);
    EXPECT_EQ(e1[i].count, e2[i].count);
  }
}

TEST(SketchCountMin, RejectsBadShapes) {
  EXPECT_THROW(CountMinSketch(64, 0), TreeError);
  EXPECT_THROW(CountMinSketch(64, 17), TreeError);
  EXPECT_NO_THROW(CountMinSketch(0, 1));  // width clamps up to the minimum
  EXPECT_THROW(SpaceSaving(0), TreeError);
}

}  // namespace
}  // namespace san
