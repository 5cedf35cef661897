// Sharded serving engine: S=1 degeneration to the unsharded network,
// bit-identical concurrent vs sequential pipeline, pipeline vs per-request
// serve agreement, and the cross-shard cost model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

void expect_same(const SimResult& a, const SimResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.routing_cost, b.routing_cost) << what;
  EXPECT_EQ(a.rotation_count, b.rotation_count) << what;
  EXPECT_EQ(a.edge_changes, b.edge_changes) << what;
  EXPECT_EQ(a.cross_shard, b.cross_shard) << what;
  EXPECT_EQ(a.requests, b.requests) << what;
}

// Acceptance: S=1 must produce bit-identical SimResults to the unsharded
// KArySplayNet on every golden workload (same balanced initial tree,
// same serve path, identity local mapping).
TEST(Sharded, SingleShardMatchesUnshardedOnEveryWorkload) {
  const int n = 32;
  const std::size_t m = 500;
  for (WorkloadKind kind :
       {WorkloadKind::kUniform, WorkloadKind::kTemporal025,
        WorkloadKind::kTemporal05, WorkloadKind::kTemporal075,
        WorkloadKind::kTemporal09, WorkloadKind::kHpc,
        WorkloadKind::kProjector, WorkloadKind::kFacebook}) {
    const Trace trace = gen_workload(kind, n, m, 0xC0FFEE);
    for (int k : {2, 3, 5}) {
      KArySplayNet plain = KArySplayNet::balanced(k, n);
      const SimResult reference = run_trace(plain, trace);

      ShardedNetwork via_serve = ShardedNetwork::balanced(k, n, 1);
      const SimResult served = run_trace(via_serve, trace);
      expect_same(served, reference,
                  std::string(workload_name(kind)) + " k=" +
                      std::to_string(k) + " serve path");
      EXPECT_EQ(served.cross_shard, 0);

      ShardedNetwork via_pipeline = ShardedNetwork::balanced(k, n, 1);
      const SimResult piped = run_trace_sharded(via_pipeline, trace);
      expect_same(piped, reference,
                  std::string(workload_name(kind)) + " k=" +
                      std::to_string(k) + " pipeline");
    }
  }
}

// Acceptance: the concurrent drain must be bit-identical to the sequential
// reference mode across 3 seeds x S in {2, 4, 8}.
TEST(Sharded, ConcurrentPipelineMatchesSequential) {
  const int n = 96;
  for (std::uint64_t seed : {7u, 21u, 1023u}) {
    const Trace trace = gen_workload(WorkloadKind::kTemporal05, n, 4000, seed);
    for (int S : {2, 4, 8}) {
      for (ShardPartition policy :
           {ShardPartition::kContiguous, ShardPartition::kHash}) {
        ShardedNetwork seq = ShardedNetwork::balanced(3, n, S, policy);
        ShardedNetwork conc = ShardedNetwork::balanced(3, n, S, policy);
        const SimResult a = run_trace_sharded(seq, trace, {.threads = 1});
        const SimResult b = run_trace_sharded(conc, trace, {.threads = 4});
        expect_same(a, b,
                    "seed=" + std::to_string(seed) + " S=" +
                        std::to_string(S) + " " +
                        shard_partition_name(policy));
        EXPECT_GT(b.cross_shard, 0);
      }
    }
  }
}

// The pipeline and the per-request serve() path are two routes to the same
// cost: per-shard op order is the arrival-order projection either way.
TEST(Sharded, PipelineMatchesPerRequestServe) {
  const int n = 64;
  const Trace trace = gen_workload(WorkloadKind::kProjector, n, 3000, 42);
  for (int S : {2, 5, 8}) {
    ShardedNetwork by_serve = ShardedNetwork::balanced(2, n, S);
    ShardedNetwork by_pipeline = ShardedNetwork::balanced(2, n, S);
    const SimResult a = run_trace(by_serve, trace);
    const SimResult b = run_trace_sharded(by_pipeline, trace);
    expect_same(a, b, "S=" + std::to_string(S));
    // Final topologies agree shard by shard: same rotations in same order.
    for (int s = 0; s < S; ++s) {
      const KAryTree& ta = by_serve.shard(s).tree();
      const KAryTree& tb = by_pipeline.shard(s).tree();
      ASSERT_EQ(ta.size(), tb.size());
      for (NodeId id = 1; id <= ta.size(); ++id) {
        EXPECT_EQ(ta.parent(id), tb.parent(id)) << "S=" << S << " s=" << s;
        EXPECT_EQ(ta.depth(id), tb.depth(id));
      }
    }
  }
}

// Cross-shard cost decomposition on a hand-checkable instance.
TEST(Sharded, CrossShardCostModel) {
  const int n = 12, S = 2;
  ShardedNetwork net = ShardedNetwork::balanced(2, n, S);
  // Contiguous split: shard 0 = {1..6}, shard 1 = {7..12}.
  ASSERT_EQ(net.map().shard_of(1), 0);
  ASSERT_EQ(net.map().shard_of(12), 1);
  ASSERT_EQ(net.top_distance(0, 1), 1);  // 2-node top tree, one edge
  ASSERT_EQ(net.top_distance(0, 0), 0);

  const NodeId u = 2, v = 11;
  const Cost du = net.shard(0).tree().depth(net.map().local_of(u));
  const Cost dv = net.shard(1).tree().depth(net.map().local_of(v));
  const ServeResult s = net.serve(u, v);
  EXPECT_EQ(s.routing_cost, du + 1 + dv);
  EXPECT_EQ(net.cross_shard_served(), 1);
  // Both endpoints were splayed to their shard roots.
  EXPECT_EQ(net.shard(0).tree().root(), net.map().local_of(u));
  EXPECT_EQ(net.shard(1).tree().root(), net.map().local_of(v));
  // A repeat of the same request is now pure top-level routing.
  const ServeResult again = net.serve(u, v);
  EXPECT_EQ(again.routing_cost, 1);
  EXPECT_EQ(again.rotations, 0);

  // Intra-shard requests never touch the counter and keep k-ary semantics.
  const ServeResult intra = net.serve(3, 4);
  EXPECT_GT(intra.routing_cost, 0);
  EXPECT_EQ(net.cross_shard_served(), 2);
}

// Shard containment: serving never moves a node across shards, and every
// shard stays a valid search tree under heavy mixed traffic.
TEST(Sharded, ShardsStayValidAndDisjoint) {
  const int n = 80;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, 5000, 3);
  for (ShardPartition policy :
       {ShardPartition::kContiguous, ShardPartition::kHash}) {
    ShardedNetwork net = ShardedNetwork::balanced(3, n, 6, policy);
    run_trace(net, trace);
    int total = 0;
    for (int s = 0; s < net.num_shards(); ++s) {
      EXPECT_TRUE(net.shard(s).tree().valid())
          << shard_partition_name(policy) << " shard " << s;
      total += net.shard(s).size();
    }
    EXPECT_EQ(total, n);
  }
}

// AnyNetwork integration: the sharded engine rides the same variant
// dispatch as every other topology.
TEST(Sharded, ServesThroughAnyNetwork) {
  const Trace trace = gen_workload(WorkloadKind::kHpc, 60, 1500, 8);
  AnyNetwork any = ShardedNetwork::balanced(3, 60, 4);
  EXPECT_EQ(any.name(), "sharded[4,contiguous] 3-ary SplayNet");
  const SimResult via_any = run_trace(any, trace);

  ShardedNetwork direct = ShardedNetwork::balanced(3, 60, 4);
  const SimResult via_direct = run_trace(direct, trace);
  expect_same(via_any, via_direct, "AnyNetwork vs direct");
  EXPECT_GT(via_any.cross_shard, 0);
  EXPECT_NE(any.get_if<ShardedNetwork>(), nullptr);
  EXPECT_EQ(any.get_if<BinarySplayNet>(), nullptr);
}

}  // namespace
}  // namespace san
