// Trace generators and statistics: determinism, id-range safety, and the
// locality/skew characteristics each workload family is supposed to carry
// (they are what the paper's Section 5 conclusions hinge on).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "io/checksum.hpp"
#include "workload/generators.hpp"
#include "workload/trace_stats.hpp"
#include "workload/zipf.hpp"

namespace san {
namespace {

void check_basic(const Trace& t, int n, std::size_t m) {
  EXPECT_EQ(t.n, n);
  ASSERT_EQ(t.size(), m);
  for (const Request& r : t.requests) {
    EXPECT_GE(r.src, 1);
    EXPECT_LE(r.src, n);
    EXPECT_GE(r.dst, 1);
    EXPECT_LE(r.dst, n);
    EXPECT_NE(r.src, r.dst);
  }
}

TEST(Workloads, AllGeneratorsProduceValidTraces) {
  for (WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kTemporal025,
        WorkloadKind::kTemporal05, WorkloadKind::kTemporal075,
        WorkloadKind::kTemporal09, WorkloadKind::kHpc,
        WorkloadKind::kProjector, WorkloadKind::kFacebook,
        WorkloadKind::kPhaseElephants, WorkloadKind::kRotatingHot}) {
    Trace t = gen_workload(kind, 64, 5000, 1);
    check_basic(t, 64, 5000);
  }
}

TEST(Workloads, Deterministic) {
  for (WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kHpc,
                            WorkloadKind::kProjector, WorkloadKind::kFacebook,
                            WorkloadKind::kPhaseElephants,
                            WorkloadKind::kRotatingHot,
                            WorkloadKind::kTemporal05}) {
    Trace a = gen_workload(kind, 50, 2000, 42);
    Trace b = gen_workload(kind, 50, 2000, 42);
    EXPECT_EQ(a.requests, b.requests) << workload_name(kind);
    Trace c = gen_workload(kind, 50, 2000, 43);
    EXPECT_NE(a.requests, c.requests) << workload_name(kind);
  }
}

// CRC32 of a trace's (src, dst) sequence, each id as four little-endian
// bytes.
std::uint32_t trace_crc(const Trace& t) {
  std::vector<unsigned char> bytes;
  bytes.reserve(8 * t.size());
  for (const Request& r : t.requests)
    for (NodeId id : {r.src, r.dst})
      for (int shift = 0; shift < 32; shift += 8)
        bytes.push_back(static_cast<unsigned char>(
            static_cast<std::uint32_t>(id) >> shift));
  return crc32(bytes.data(), bytes.size());
}

// Pins every generator's request stream byte for byte. GoldenCosts sees
// traces only at n = 32 and only through the costs they induce, which
// draws Zipf ranks from at most 128 entries; the three large cases draw
// from 10^5-entry CDFs, the scale perfbench generates at. Any change to a
// generator's draws, their order or the Zipf sampler's ranks shows up
// here.
TEST(Workloads, TraceStreamIsPinned) {
  struct KindPin {
    WorkloadKind kind;
    std::uint32_t crc;
  };
  const KindPin kinds[] = {
      {WorkloadKind::kUniform, 0x54dab9dau},
      {WorkloadKind::kTemporal025, 0x72802ff4u},
      {WorkloadKind::kTemporal05, 0xd8bb7a31u},
      {WorkloadKind::kTemporal075, 0x51fb83c3u},
      {WorkloadKind::kTemporal09, 0xa94cfb9eu},
      {WorkloadKind::kHpc, 0x054712a9u},
      {WorkloadKind::kProjector, 0x5fd37532u},
      {WorkloadKind::kFacebook, 0x18ed5d6fu},
      {WorkloadKind::kPhaseElephants, 0xe0bdfcd7u},
      {WorkloadKind::kRotatingHot, 0x509e6c78u},
      {WorkloadKind::kSequentialScan, 0x78564361u},
      {WorkloadKind::kBitReversal, 0x634d60e9u},
  };
  for (const KindPin& p : kinds)
    EXPECT_EQ(trace_crc(gen_workload(p.kind, 64, 5000, 7)), p.crc)
        << workload_name(p.kind);
  EXPECT_EQ(trace_crc(gen_projector(25000, 200000, 7)), 0x9a9b2e5du);
  EXPECT_EQ(trace_crc(gen_facebook(100000, 200000, 7)), 0x68afff4du);
  EXPECT_EQ(trace_crc(gen_phase_elephants(100000, 200000, 16, 7)), 0x4de1c677u);
}

TEST(Workloads, PaperNodeCounts) {
  EXPECT_EQ(paper_node_count(WorkloadKind::kUniform), 100);
  EXPECT_EQ(paper_node_count(WorkloadKind::kTemporal09), 1023);
  EXPECT_EQ(paper_node_count(WorkloadKind::kHpc), 500);
  EXPECT_EQ(paper_node_count(WorkloadKind::kProjector), 100);
  EXPECT_EQ(paper_node_count(WorkloadKind::kFacebook), 10000);
  // n <= 0 selects the paper default.
  Trace t = gen_workload(WorkloadKind::kProjector, 0, 100, 1);
  EXPECT_EQ(t.n, 100);
}

TEST(Workloads, TemporalRepeatFractionTracksParameter) {
  for (double p : {0.25, 0.5, 0.75, 0.9}) {
    Trace t = gen_temporal(200, 50000, p, 9);
    TraceStats s = compute_stats(t);
    EXPECT_NEAR(s.repeat_fraction, p, 0.02) << "p=" << p;
  }
}

TEST(Workloads, UniformHasNearFullEntropy) {
  Trace t = gen_uniform(128, 100000, 10);
  TraceStats s = compute_stats(t);
  EXPECT_GT(s.src_entropy, 6.9);  // log2(128) = 7
  EXPECT_GT(s.dst_entropy, 6.9);
  EXPECT_LT(s.repeat_fraction, 0.01);
}

TEST(Workloads, LocalityOrderingAcrossFamilies) {
  // The property stack the substitution argument rests on (the header of
  // workload/generators.hpp and the paper's Section 5.1): HPC has LOW
  // temporal locality (bulk-synchronous sweeps, a pair recurs once per
  // iteration) but the most structured demand matrix; ProjecToR is sparse
  // and skewed (elephant flows); Facebook has low locality and wide
  // heavy-tailed support.
  const std::size_t m = 50000;
  TraceStats hpc = compute_stats(gen_hpc(100, m, 3));
  TraceStats proj = compute_stats(gen_projector(100, m, 3));
  TraceStats fb = compute_stats(gen_facebook(100, m, 3));
  TraceStats uni = compute_stats(gen_uniform(100, m, 3));

  // Temporal locality is low for all three real-trace substitutes; the
  // skewed ProjecToR support gives it the highest accidental repeat rate
  // (hot pair drawn twice in a row), still far from the bursty temporal
  // workloads.
  EXPECT_LT(hpc.repeat_fraction, 0.05);
  EXPECT_LT(fb.repeat_fraction, 0.05);
  EXPECT_LT(proj.repeat_fraction, 0.4);  // far below the bursty temporal 0.75/0.9
  EXPECT_GT(proj.repeat_fraction, hpc.repeat_fraction);

  // Sparsity: ProjecToR's support is a few pairs per node; uniform covers
  // nearly every ordered pair.
  EXPECT_LT(proj.distinct_pairs, uni.distinct_pairs / 2);
  // Structure (all at n = 100): both real-trace substitutes have demand
  // matrices far more compressible than uniform; Facebook sits between.
  EXPECT_LT(hpc.pair_entropy, uni.pair_entropy - 2.0);
  EXPECT_LT(proj.pair_entropy, uni.pair_entropy - 2.0);
  EXPECT_LT(fb.pair_entropy, uni.pair_entropy);
}

TEST(Workloads, FacebookEndpointsAreSkewed) {
  Trace t = gen_facebook(1000, 100000, 4);
  TraceStats s = compute_stats(t);
  // Zipf(1.30) over 1000 ranks: entropy well below uniform log2(1000)=9.97.
  EXPECT_LT(s.src_entropy, 9.0);
  EXPECT_GT(s.src_entropy, 4.0);
}

TEST(Workloads, EntropyBoundIsFinitePositive) {
  Trace t = gen_temporal(100, 10000, 0.5, 6);
  TraceStats s = compute_stats(t);
  EXPECT_GT(s.entropy_bound, 0.0);
  // Upper bound: 2m log2(n).
  EXPECT_LT(s.entropy_bound, 2.0 * 10000 * std::log2(100.0) + 1.0);
}

TEST(Workloads, ZipfSamplerIsSkewedAndInRange) {
  ZipfSampler zipf(100, 1.2);
  std::mt19937_64 rng(8);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 100000; ++i) {
    int r = zipf(rng);
    ASSERT_GE(r, 1);
    ASSERT_LE(r, 100);
    ++counts[static_cast<size_t>(r)];
  }
  EXPECT_GT(counts[1], counts[10] * 5 / 2);  // ~ 10^1.2 = 15.8x in theory
  EXPECT_GT(counts[10], counts[100]);
}

// The guide table answers exactly what a binary search on the CDF does:
// on random variates, on every bucket edge j / n and every CDF value (each
// with its neighbours one ulp either side, where rounding could misplace a
// bucket), and on uniform_open's extremes.
TEST(Workloads, ZipfRankMatchesLowerBound) {
  std::mt19937_64 rng(19);
  for (int n : {1, 2, 3, 100, 4096, 100000, 1000000})
    for (double alpha : {1.05, 1.3, 1.6, 1.8}) {
      const ZipfSampler zipf(n, alpha);
      const std::vector<double>& cdf = zipf.cdf();
      std::size_t checked = 0, mismatches = 0;
      auto check = [&](double u) {
        const auto at = std::lower_bound(cdf.begin(), cdf.end(), u);
        ++checked;
        if (zipf.rank(u) != static_cast<int>(at - cdf.begin()) + 1)
          ++mismatches;
      };
      auto check_around = [&](double u) {
        check(std::nextafter(u, 0.0));
        check(u);
        check(std::nextafter(u, 1.0));
      };
      for (int d = 0; d < 1000000; ++d) check(uniform_open(rng));
      for (int j = 0; j <= n; ++j)
        check_around(static_cast<double>(j) / static_cast<double>(n));
      // The last bucket at n = 10^6, alpha = 1.8 holds ~10^5 ranks, and a
      // CDF value inside it costs a scan from the bucket's start, so every
      // value would cost ~10^10 steps there; take every 101st instead.
      const std::size_t stride = n >= 1000000 ? 101 : 1;
      for (std::size_t i = 0; i < cdf.size(); i += stride) check_around(cdf[i]);
      check(0x1.0p-53);
      check(1.0);
      EXPECT_EQ(mismatches, 0u)
          << "n=" << n << " alpha=" << alpha << " of " << checked;
    }
}

TEST(Workloads, ZipfSamplerRejectsDegenerateArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.2), TreeError);
  EXPECT_THROW(ZipfSampler(-3, 1.2), TreeError);
  const double inf = std::numeric_limits<double>::infinity();
  for (double alpha : {std::numeric_limits<double>::quiet_NaN(), inf, -inf})
    EXPECT_THROW(ZipfSampler(100, alpha), TreeError) << alpha;
  // 10^-400 underflows to 0, so a weight is 1 / 0 == inf, and inf / inf
  // would fill the CDF with NaN.
  EXPECT_THROW(ZipfSampler(10, -400.0), TreeError);
  // The smallest support: one rank that takes every variate.
  const ZipfSampler one(1, 1.2);
  EXPECT_EQ(one.rank(0x1.0p-53), 1);
  EXPECT_EQ(one.rank(1.0), 1);
}

TEST(Workloads, RejectDegenerateParameters) {
  EXPECT_THROW(gen_uniform(1, 10, 0), TreeError);
  EXPECT_THROW(gen_temporal(10, 10, 1.0, 0), TreeError);
  EXPECT_THROW(gen_temporal(10, 10, -0.1, 0), TreeError);
  EXPECT_THROW(gen_hpc(4, 10, 0), TreeError);
  EXPECT_THROW(gen_phase_elephants(10, 10, 0, 0), TreeError);
  EXPECT_THROW(gen_phase_elephants(2, 10, 4, 0), TreeError);
  EXPECT_THROW(gen_rotating_hotset(10, 10, 1, 5, 0), TreeError);
  EXPECT_THROW(gen_rotating_hotset(10, 10, 11, 5, 0), TreeError);
  EXPECT_THROW(gen_rotating_hotset(10, 10, 4, 0, 0), TreeError);
}

TEST(Workloads, PhaseElephantsDriftAcrossPhases) {
  // The communication graph must actually move: the top pairs of the first
  // phase should carry almost none of the last phase's traffic.
  const int n = 200;
  const std::size_t m = 40000;
  const int phases = 4;
  Trace t = gen_phase_elephants(n, m, phases, 17);
  const std::size_t phase_len = m / phases;

  auto top_pairs = [&](std::size_t begin, std::size_t end) {
    std::map<std::pair<NodeId, NodeId>, int> counts;
    for (std::size_t i = begin; i < end; ++i)
      ++counts[{t[i].src, t[i].dst}];
    std::vector<std::pair<int, std::pair<NodeId, NodeId>>> sorted;
    for (const auto& [pair, c] : counts) sorted.push_back({c, pair});
    std::sort(sorted.rbegin(), sorted.rend());
    sorted.resize(std::min<std::size_t>(sorted.size(), 10));
    return sorted;
  };
  const auto first = top_pairs(0, phase_len);
  const auto last = top_pairs(m - phase_len, m);
  // Each phase is heavily concentrated on its own elephants...
  EXPECT_GT(first[0].first, static_cast<int>(phase_len) / 50);
  // ...and the hot sets are (essentially) disjoint across phases.
  std::size_t shared = 0;
  for (const auto& [ca, pa] : first)
    for (const auto& [cb, pb] : last)
      if (pa == pb) ++shared;
  EXPECT_LE(shared, 1u);
}

TEST(Workloads, RotatingHotsetConcentratesThenMoves) {
  const int n = 256;
  const std::size_t m = 32000;
  const int hot = 16;
  const std::size_t rotate = 8000;
  Trace t = gen_rotating_hotset(n, m, hot, rotate, 23);

  auto hot_nodes = [&](std::size_t begin, std::size_t end) {
    std::map<NodeId, int> counts;
    for (std::size_t i = begin; i < end; ++i) {
      ++counts[t[i].src];
      ++counts[t[i].dst];
    }
    std::vector<std::pair<int, NodeId>> sorted;
    for (const auto& [node, c] : counts) sorted.push_back({c, node});
    std::sort(sorted.rbegin(), sorted.rend());
    std::set<NodeId> top;
    for (int i = 0; i < hot && i < static_cast<int>(sorted.size()); ++i)
      top.insert(sorted[static_cast<std::size_t>(i)].second);
    return top;
  };
  const std::set<NodeId> first = hot_nodes(0, rotate);
  const std::set<NodeId> second = hot_nodes(rotate, 2 * rotate);
  // Within a rotation, the hot set dominates the endpoint distribution:
  // ~92% of endpoints fall on 16 of 256 nodes.
  std::size_t first_hits = 0;
  for (std::size_t i = 0; i < rotate; ++i)
    first_hits += first.count(t[i].src) + first.count(t[i].dst);
  EXPECT_GT(first_hits, 2 * rotate * 8 / 10);
  // Across rotations the sets barely overlap (16 of 256 resampled).
  std::size_t overlap = 0;
  for (NodeId id : first) overlap += second.count(id);
  EXPECT_LT(overlap, 4u);
}

TEST(Workloads, StatsOnEmptyTrace) {
  Trace t;
  t.n = 10;
  TraceStats s = compute_stats(t);
  EXPECT_EQ(s.distinct_pairs, 0u);
  EXPECT_EQ(s.src_entropy, 0.0);
}

}  // namespace
}  // namespace san
