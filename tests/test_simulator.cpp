// Simulation layer: cost accounting identities across every network the
// simulator serves, and agreement between the static shortcut and the
// StaticTreeNetwork path.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/shape.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

TEST(Simulator, StaticNetworkNeverRotates) {
  StaticTreeNetwork net(full_kary_tree(3, 50), "full 3-ary");
  Trace t = gen_uniform(50, 2000, 1);
  SimResult r = run_trace(net, t);
  EXPECT_EQ(r.rotation_count, 0);
  EXPECT_EQ(r.edge_changes, 0);
  EXPECT_GT(r.routing_cost, 0);
  EXPECT_EQ(r.requests, 2000u);
  EXPECT_EQ(r.total_cost(), r.routing_cost);
}

TEST(Simulator, StaticShortcutMatchesAdapter) {
  KAryTree tree = full_kary_tree(4, 80);
  Trace t = gen_temporal(80, 3000, 0.5, 2);
  StaticTreeNetwork net(full_kary_tree(4, 80), "full");
  SimResult via_adapter = run_trace(net, t);
  SimResult direct = run_trace_static(tree, t);
  EXPECT_EQ(via_adapter.routing_cost, direct.routing_cost);
  EXPECT_EQ(via_adapter.requests, direct.requests);
}

TEST(Simulator, StaticPathsAgreeOnRandomTreesAndTraces) {
  // run_trace_static and StaticTreeNetwork::serve share one costing helper
  // (serve_on_static_tree); this locks their agreement — totals and
  // per-request — over random topologies and every workload family.
  std::mt19937_64 rng(20260728);
  for (int k : {2, 3, 7}) {
    for (int trial = 0; trial < 3; ++trial) {
      const int n = 40 + static_cast<int>(rng() % 60);
      KAryTree tree = build_from_shape(k, make_random_shape(n, k, rng));
      StaticTreeNetwork net(tree, "random static");
      // Draw into locals: argument evaluation order is unsequenced and the
      // chosen (kind, seed) pair must not depend on the compiler.
      const auto kind = static_cast<WorkloadKind>(rng() % 8);
      const std::uint64_t trace_seed = rng();
      const Trace t = gen_workload(kind, n, 1500, trace_seed);
      SimResult via_adapter = run_trace(net, t);
      SimResult direct = run_trace_static(tree, t);
      EXPECT_EQ(via_adapter.routing_cost, direct.routing_cost)
          << "k=" << k << " trial " << trial;
      EXPECT_EQ(via_adapter.rotation_count, direct.rotation_count);
      EXPECT_EQ(via_adapter.edge_changes, direct.edge_changes);
      EXPECT_EQ(via_adapter.requests, direct.requests);
      for (const Request& r : t.requests) {
        ASSERT_EQ(net.serve(r.src, r.dst).routing_cost,
                  serve_on_static_tree(tree, r.src, r.dst).routing_cost)
            << r.src << " -> " << r.dst;
      }
    }
  }
}

TEST(Simulator, OnlineAdaptersAccumulateCosts) {
  Trace t = gen_temporal(64, 3000, 0.7, 3);
  std::vector<AnyNetwork> nets;
  nets.emplace_back(KArySplayNet::balanced(3, 64));
  nets.emplace_back(CentroidSplayNet(3, 64));
  nets.emplace_back(BinarySplayNet(64));
  nets.emplace_back(ShardedNetwork::balanced(3, 64, 4));
  for (AnyNetwork& net : nets) {
    SimResult r = run_trace(net, t);
    EXPECT_EQ(r.requests, 3000u) << net.name();
    EXPECT_GT(r.routing_cost, 0) << net.name();
    EXPECT_GT(r.rotation_count, 0) << net.name();
    EXPECT_EQ(r.total_cost(), r.routing_cost + r.rotation_count)
        << net.name();
    EXPECT_EQ(r.model_cost(), r.routing_cost + r.edge_changes) << net.name();
    EXPECT_NEAR(r.avg_request_cost(),
                static_cast<double>(r.total_cost()) / 3000.0, 1e-9)
        << net.name();
  }
}

// Field-level lock on the SimResult cost identities: golden tests exercise
// model_cost/edge_changes only through total_cost, so pin them directly.
TEST(Simulator, SimResultCostIdentities) {
  SimResult r;
  r.routing_cost = 100;
  r.rotation_count = 40;
  r.edge_changes = 90;
  r.cross_shard = 3;
  r.requests = 10;
  EXPECT_EQ(r.total_cost(), 140);   // unit routing + unit rotation
  EXPECT_EQ(r.model_cost(), 190);   // routing + links added/removed
  EXPECT_DOUBLE_EQ(r.avg_request_cost(), 14.0);
  EXPECT_DOUBLE_EQ(r.avg_routing_cost(), 10.0);

  const SimResult empty;
  EXPECT_EQ(empty.total_cost(), 0);
  EXPECT_EQ(empty.model_cost(), 0);
  EXPECT_EQ(empty.cross_shard, 0);
  EXPECT_EQ(empty.avg_request_cost(), 0.0);
  EXPECT_EQ(empty.avg_routing_cost(), 0.0);
}

// The edge_changes path: run_trace must accumulate exactly the per-request
// adjustment links reported by serve(), and model_cost must track them.
TEST(Simulator, EdgeChangesMatchPerRequestAccounting) {
  const int n = 48;
  Trace t = gen_temporal(n, 2000, 0.5, 17);
  KArySplayNet reference = KArySplayNet::balanced(3, n);
  Cost routing = 0, edges = 0;
  for (const Request& r : t.requests) {
    const ServeResult s = reference.serve(r.src, r.dst);
    routing += s.routing_cost;
    edges += s.edge_changes;
  }
  ASSERT_GT(edges, 0);

  KArySplayNet net = KArySplayNet::balanced(3, n);
  const SimResult res = run_trace(net, t);
  EXPECT_EQ(res.edge_changes, edges);
  EXPECT_EQ(res.routing_cost, routing);
  EXPECT_EQ(res.model_cost(), routing + edges);
  // Every k-splay merges at least one link pair, so the Section 2 model
  // cost strictly dominates routing for a self-adjusting replay.
  EXPECT_GT(res.model_cost(), res.routing_cost);
}

TEST(Simulator, NetworkNames) {
  EXPECT_EQ(KArySplayNet::balanced(5, 20).name(), "5-ary SplayNet");
  EXPECT_EQ(KArySplayNet::balanced(3, 20, RotationPolicy{},
                                   SplayMode::kSemiSplayOnly)
                .name(),
            "3-ary SplayNet (semi-splay)");
  EXPECT_EQ(CentroidSplayNet(2, 20).name(), "3-SplayNet");
  EXPECT_EQ(BinarySplayNet(20).name(), "SplayNet");
  EXPECT_EQ(StaticTreeNetwork(full_kary_tree(2, 8), "x").name(), "x");
  // A sharded fleet names its shards' engine, splay mode included.
  EXPECT_EQ(ShardedNetwork::balanced(3, 20, 2).name(),
            "sharded[2,contiguous] 3-ary SplayNet");
  EXPECT_EQ(ShardedNetwork::balanced(3, 20, 2, ShardPartition::kHash,
                                     SplayMode::kSemiSplayOnly)
                .name(),
            "sharded[2,hash] 3-ary SplayNet (semi-splay)");
}

TEST(Simulator, SelfAdjustingBeatsStaticOnHighLocality) {
  // The paper's core qualitative claim, as an integration test: with high
  // temporal locality the self-adjusting network's total cost (routing +
  // rotations) drops below the static full tree's routing cost.
  const int n = 200;
  Trace t = gen_temporal(n, 30000, 0.9, 4);
  KArySplayNet online = KArySplayNet::balanced(3, n);
  SimResult dynamic = run_trace(online, t);
  SimResult fixed = run_trace_static(full_kary_tree(3, n), t);
  EXPECT_LT(dynamic.total_cost(), fixed.total_cost());
}

TEST(Simulator, StaticBeatsSelfAdjustingOnUniform) {
  // And the converse: under uniform traffic the rotations cannot pay off.
  const int n = 200;
  Trace t = gen_uniform(n, 30000, 5);
  KArySplayNet online = KArySplayNet::balanced(3, n);
  SimResult dynamic = run_trace(online, t);
  SimResult fixed = run_trace_static(full_kary_tree(3, n), t);
  EXPECT_GT(dynamic.total_cost(), fixed.total_cost());
}

TEST(Simulator, EmptyTrace) {
  StaticTreeNetwork net(full_kary_tree(2, 10), "full");
  Trace t;
  t.n = 10;
  SimResult r = run_trace(net, t);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.avg_request_cost(), 0.0);
}

}  // namespace
}  // namespace san
