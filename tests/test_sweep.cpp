// Parallel sweep runner: positional results, determinism vs the serial
// path and error propagation.
#include <gtest/gtest.h>

#include "sim/sweep.hpp"
#include "static_trees/full_tree.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

TEST(Sweep, MatchesSerialExecution) {
  Trace trace = gen_temporal(60, 5000, 0.5, 4);
  std::vector<SweepCase> cases;
  for (int k = 2; k <= 6; ++k) {
    cases.push_back({[k, &trace]() -> AnyNetwork {
                       return KArySplayNetwork(
                           KArySplayNet::balanced(k, trace.n));
                     },
                     &trace});
  }
  auto parallel = run_sweep(cases, 4);
  auto serial = run_sweep(cases, 1);
  ASSERT_EQ(parallel.size(), 5u);
  for (size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].routing_cost, serial[i].routing_cost) << i;
    EXPECT_EQ(parallel[i].rotation_count, serial[i].rotation_count) << i;
  }
  // Results are positional: higher k costs less on this trace family.
  EXPECT_GT(parallel.front().total_cost(), parallel.back().total_cost());
}

TEST(Sweep, MixedTopologies) {
  Trace trace = gen_uniform(50, 2000, 9);
  std::vector<SweepCase> cases = {
      {[&trace]() -> AnyNetwork {
         return StaticTreeNetwork(full_kary_tree(3, trace.n), "full");
       },
       &trace},
      {[&trace]() -> AnyNetwork { return BinarySplayNetwork(trace.n); },
       &trace},
      {[&trace]() -> AnyNetwork {
         return CentroidSplayNetwork(CentroidSplayNet(2, trace.n));
       },
       &trace},
      {[&trace]() -> AnyNetwork {
         return ShardedNetwork::balanced(2, trace.n, 4);
       },
       &trace},
  };
  auto results = run_sweep(cases);
  EXPECT_EQ(results[0].rotation_count, 0);  // static never rotates
  EXPECT_GT(results[1].rotation_count, 0);
  EXPECT_GT(results[2].rotation_count, 0);
  EXPECT_GT(results[3].rotation_count, 0);
  EXPECT_GT(results[3].cross_shard, 0);  // uniform traffic crosses shards
  for (int i = 0; i < 3; ++i) EXPECT_EQ(results[i].cross_shard, 0) << i;
}

TEST(Sweep, RejectsIncompleteCases) {
  Trace trace = gen_uniform(10, 10, 1);
  std::vector<SweepCase> cases(1);
  cases[0].trace = &trace;  // no factory
  EXPECT_THROW(run_sweep(cases), TreeError);
  cases[0].make_network = [&trace]() -> AnyNetwork {
    return BinarySplayNetwork(trace.n);
  };
  cases[0].trace = nullptr;
  EXPECT_THROW(run_sweep(cases), TreeError);
}

TEST(Sweep, PropagatesWorkerExceptions) {
  Trace trace = gen_uniform(10, 10, 1);
  std::vector<SweepCase> cases = {
      {[]() -> AnyNetwork { throw TreeError("factory exploded"); }, &trace}};
  EXPECT_THROW(run_sweep(cases, 2), TreeError);
}

TEST(Sweep, EmptySweep) {
  EXPECT_TRUE(run_sweep({}).empty());
}

// Regression guard for the persistent-executor rewrite: a sweep over a
// fixed-seed trace must produce bit-identical SimResults whether it runs
// serially (threads=1) or on the full pool (threads=0). Each case owns
// its result slot and its own network instance, so scheduling order must
// not leak into any counted field.
TEST(Sweep, DeterministicAcrossThreadCounts) {
  Trace trace = gen_temporal(48, 8000, 0.75, 11);
  std::vector<SweepCase> cases;
  for (int k = 2; k <= 9; ++k) {
    cases.push_back({[k, &trace]() -> AnyNetwork {
                       return KArySplayNetwork(
                           KArySplayNet::balanced(k, trace.n));
                     },
                     &trace});
  }
  const auto serial = run_sweep(cases, 1);
  const auto pooled = run_sweep(cases, 0);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].routing_cost, pooled[i].routing_cost) << i;
    EXPECT_EQ(serial[i].rotation_count, pooled[i].rotation_count) << i;
    EXPECT_EQ(serial[i].edge_changes, pooled[i].edge_changes) << i;
    EXPECT_EQ(serial[i].requests, pooled[i].requests) << i;
  }
}

}  // namespace
}  // namespace san
