// Seeded fuzz suite for the migration invariants: after random migrate()
// bursts a ShardMap must stay a bijection with dense rank-ordered local
// ids and match an independent from-scratch rebuild of the same final
// assignment; the serving engine's trees must stay valid under interleaved
// serve/migration traffic; a migrated-but-unserved engine must be
// indistinguishable — replayed costs included — from one built from
// scratch over the final map; and the relink price of every migration,
// split and merge must equal the sorted-list symmetric difference of the
// rebuilt shards' links, with the same results, trees and map whether the
// barrier's rebuild round runs inline or four threads wide.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "io/tree_io.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"
#include "workload/rebalance.hpp"

namespace san {
namespace {

/// Full consistency audit of one map: inverse mappings agree, local ids
/// are dense 1..|shard| in ascending global order, every node is owned by
/// exactly one shard.
void check_bijection(const ShardMap& map, const std::string& what) {
  std::vector<int> seen(static_cast<std::size_t>(map.n()) + 1, 0);
  int total = 0;
  for (int s = 0; s < map.shards(); ++s) {
    NodeId prev_global = 0;
    for (NodeId local = 1; local <= map.shard_size(s); ++local) {
      const NodeId global = map.global_of(s, local);
      ASSERT_GE(global, 1) << what;
      ASSERT_LE(global, map.n()) << what;
      ASSERT_GT(global, prev_global) << what << " shard " << s;  // rank order
      prev_global = global;
      ASSERT_EQ(map.shard_of(global), s) << what << " node " << global;
      ASSERT_EQ(map.local_of(global), local) << what << " node " << global;
      ++seen[static_cast<std::size_t>(global)];
    }
    total += map.shard_size(s);
  }
  ASSERT_EQ(total, map.n()) << what;
  for (NodeId id = 1; id <= map.n(); ++id)
    ASSERT_EQ(seen[static_cast<std::size_t>(id)], 1) << what << " node " << id;
}

/// Every child->parent link of `shards` as a sorted list of unordered
/// global-id pairs: the reference encoding for relink pricing.
std::vector<std::uint64_t> sorted_links(const ShardedNetwork& net,
                                        const std::vector<int>& shards) {
  std::vector<std::uint64_t> out;
  for (int s : shards) {
    const KAryTree& t = net.shard(s).tree();
    for (NodeId local = 1; local <= t.size(); ++local)
      if (const NodeId p = t.parent(local); p != kNoNode)
        out.push_back(pack_node_pair(net.map().global_of(s, local),
                                     net.map().global_of(s, p)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Reference relink price: size of the symmetric difference of two sorted
/// link lists.
Cost reference_relink(const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after) {
  std::vector<std::uint64_t> diff;
  std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                after.end(), std::back_inserter(diff));
  return static_cast<Cost>(diff.size());
}

/// Parent of every node in global ids (kNoNode for shard roots).
std::vector<NodeId> global_parents(const ShardedNetwork& net) {
  std::vector<NodeId> parent(static_cast<std::size_t>(net.size()) + 1,
                             kNoNode);
  for (int s = 0; s < net.num_shards(); ++s) {
    const KAryTree& t = net.shard(s).tree();
    for (NodeId local = 1; local <= t.size(); ++local)
      if (const NodeId p = t.parent(local); p != kNoNode)
        parent[static_cast<std::size_t>(net.map().global_of(s, local))] =
            net.map().global_of(s, p);
  }
  return parent;
}

/// Links present before and after with their direction reversed (x under
/// y before, y under x after): shared links a one-way match would miss.
int flipped_links(const std::vector<NodeId>& before,
                  const std::vector<NodeId>& after) {
  int flips = 0;
  for (std::size_t g = 1; g < after.size(); ++g) {
    const NodeId h = after[g];
    if (h != kNoNode && before[static_cast<std::size_t>(h)] ==
                            static_cast<NodeId>(g))
      ++flips;
  }
  return flips;
}

/// write_tree bytes of one tree.
std::string tree_bytes(const KAryTree& tree) {
  std::ostringstream out;
  write_tree(out, tree);
  return out.str();
}

/// Two fleets hold the same map and the same bytes in every shard and
/// replica.
void expect_same_fleet(const ShardedNetwork& a, const ShardedNetwork& b,
                       const std::string& where) {
  ASSERT_EQ(a.num_shards(), b.num_shards()) << where;
  for (int s = 0; s < a.num_shards(); ++s) {
    ASSERT_EQ(a.map().shard_size(s), b.map().shard_size(s)) << where;
    EXPECT_EQ(tree_bytes(a.shard(s).tree()), tree_bytes(b.shard(s).tree()))
        << where << " shard " << s;
    ASSERT_EQ(a.has_replica(s), b.has_replica(s)) << where << " shard " << s;
    if (a.has_replica(s)) {
      EXPECT_EQ(tree_bytes(a.replica(s).tree()),
                tree_bytes(b.replica(s).tree()))
          << where << " replica " << s;
    }
  }
  for (NodeId id = 1; id <= a.size(); ++id) {
    ASSERT_EQ(a.map().shard_of(id), b.map().shard_of(id)) << where;
    ASSERT_EQ(a.map().local_of(id), b.map().local_of(id)) << where;
  }
}

/// Shards a batch touches (sources and destinations), ascending.
std::vector<int> touched_shards(const ShardedNetwork& net,
                                const std::vector<Migration>& batch) {
  std::vector<int> shards;
  for (const Migration& m : batch) {
    shards.push_back(net.map().shard_of(m.node));
    shards.push_back(m.to_shard);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

TEST(MigrationFuzz, RelinkCountMatchesSortedEdgeDiff) {
  // apply_migrations prices a rebuild in one pass over a parent array; the
  // reference sorts the touched shards' links before and after and takes
  // their std::set_symmetric_difference. The "before" links are those left
  // by the extraction splays inside apply_migrations, so a twin fleet (same
  // build, same traffic) replays the extractions to expose them. `net`
  // rebuilds inline and a third fleet, `wide`, four threads wide; the two
  // must agree on every result, tree and map.
  int flips = 0;
  for (int k : {2, 3, 5}) {
    for (int S : {2, 4, 8}) {
      const int n = 40 * S;
      const std::uint64_t seed = 1000u * static_cast<std::uint64_t>(k) +
                                 static_cast<std::uint64_t>(S);
      const Trace traffic =
          gen_workload(WorkloadKind::kTemporal05, n, 4000, seed);
      const auto make_fleet = [&] {
        ShardedNetwork fleet =
            ShardedNetwork::balanced(k, n, S, ShardPartition::kHash);
        fleet.add_replica(S - 1);
        return fleet;
      };
      ShardedNetwork net = make_fleet();
      ShardedNetwork twin = make_fleet();
      ShardedNetwork wide = make_fleet();
      std::mt19937_64 rng(seed);
      std::size_t cursor = 0;
      for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 500; ++i, ++cursor) {
          net.serve(traffic[cursor].src, traffic[cursor].dst);
          twin.serve(traffic[cursor].src, traffic[cursor].dst);
          wide.serve(traffic[cursor].src, traffic[cursor].dst);
        }
        std::vector<Migration> batch;
        std::vector<int> owned(static_cast<std::size_t>(S));
        for (int s = 0; s < S; ++s)
          owned[static_cast<std::size_t>(s)] = net.map().shard_size(s);
        std::vector<bool> used(static_cast<std::size_t>(n) + 1, false);
        for (int i = 0; i < 12; ++i) {
          const NodeId node = static_cast<NodeId>(1 + rng() % n);
          const int from = net.map().shard_of(node);
          const int to = static_cast<int>(rng() % S);
          if (used[static_cast<std::size_t>(node)] || from == to ||
              owned[static_cast<std::size_t>(from)] <= 1)
            continue;
          used[static_cast<std::size_t>(node)] = true;
          --owned[static_cast<std::size_t>(from)];
          ++owned[static_cast<std::size_t>(to)];
          batch.push_back({node, to});
        }
        std::sort(batch.begin(), batch.end(),
                  [](const Migration& a, const Migration& b) {
                    return a.node < b.node;
                  });
        const std::vector<int> shards = touched_shards(net, batch);

        Cost extraction = 0;
        for (const Migration& m : batch)
          extraction += twin.shard(twin.map().shard_of(m.node))
                            .access(twin.map().local_of(m.node))
                            .routing_cost;
        const std::vector<std::uint64_t> before = sorted_links(twin, shards);
        const std::vector<NodeId> parent_before = global_parents(twin);

        const MigrationResult res = net.apply_migrations(batch, 1);
        const MigrationResult wide_res = wide.apply_migrations(batch, 4);
        twin.apply_migrations(batch);  // rebuilds the same shards balanced
        const std::string where = "k=" + std::to_string(k) +
                                  " S=" + std::to_string(S) +
                                  " round=" + std::to_string(round);
        EXPECT_EQ(wide_res.migrated, res.migrated) << where;
        EXPECT_EQ(wide_res.extraction_routing, res.extraction_routing) << where;
        EXPECT_EQ(wide_res.extraction_rotations, res.extraction_rotations)
            << where;
        EXPECT_EQ(wide_res.relink_edges, res.relink_edges) << where;
        expect_same_fleet(net, wide, where);
        ASSERT_EQ(res.extraction_routing, extraction) << where;
        EXPECT_EQ(res.relink_edges,
                  reference_relink(before, sorted_links(net, shards)))
            << where;
        EXPECT_GT(res.relink_edges, 0) << where;
        flips += flipped_links(parent_before, global_parents(net));
      }
    }
  }
  EXPECT_GT(flips, 0) << "no batch reversed a link; the either-way match "
                         "went untested";
}

TEST(MigrationFuzz, LifecycleRelinkCountMatchesSortedEdgeDiff) {
  // split_shard and merge_shards price their rebuilds like
  // apply_migrations; check both against the sorted reference on warmed
  // fleets, and an inline split (`net`) against a four-wide one (`wide`).
  // A merge rebuilds one shard, always inline; `wide` merges too so the
  // twins stay comparable.
  int flips = 0;
  for (int k : {2, 3, 5}) {
    const int n = 240;
    const std::uint64_t seed = 77u + static_cast<std::uint64_t>(k);
    const Trace traffic =
        gen_workload(WorkloadKind::kTemporal075, n, 6000, seed);
    const auto make_fleet = [&] {
      ShardedNetwork fleet =
          ShardedNetwork::balanced(k, n, 4, ShardPartition::kHash);
      fleet.add_replica(0);
      return fleet;
    };
    ShardedNetwork net = make_fleet();
    ShardedNetwork wide = make_fleet();
    std::mt19937_64 rng(seed);
    std::size_t cursor = 0;
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < 500; ++i, ++cursor) {
        net.serve(traffic[cursor].src, traffic[cursor].dst);
        wide.serve(traffic[cursor].src, traffic[cursor].dst);
      }
      const int S = net.num_shards();
      const int a = static_cast<int>(rng() % S);
      const std::vector<NodeId> parent_before = global_parents(net);
      const std::string where =
          "k=" + std::to_string(k) + " round=" + std::to_string(round);
      if (S <= 2 || (S < 8 && rng() % 2 == 0)) {
        const std::vector<std::uint64_t> before = sorted_links(net, {a});
        const LifecycleResult res = net.split_shard(a, 1);
        const LifecycleResult wide_res = wide.split_shard(a, 4);
        EXPECT_EQ(res.relink_edges,
                  reference_relink(before,
                                   sorted_links(net, {a, res.shard})))
            << "split " << where;
        EXPECT_EQ(wide_res.shard, res.shard) << "split " << where;
        EXPECT_EQ(wide_res.relink_edges, res.relink_edges) << "split " << where;
        EXPECT_EQ(wide_res.top_edges, res.top_edges) << "split " << where;
      } else {
        const int b = (a + 1 + static_cast<int>(rng() % (S - 1))) % S;
        const std::vector<std::uint64_t> before = sorted_links(net, {a, b});
        const LifecycleResult res = net.merge_shards(a, b);
        wide.merge_shards(a, b);
        EXPECT_EQ(res.relink_edges,
                  reference_relink(before, sorted_links(net, {res.shard})))
            << "merge " << where;
      }
      expect_same_fleet(net, wide, where);
      flips += flipped_links(parent_before, global_parents(net));
    }
  }
  EXPECT_GT(flips, 0);
}

TEST(MigrationFuzz, MapStaysABijectionUnderRandomBursts) {
  for (std::uint64_t seed : {1u, 42u, 4096u}) {
    std::mt19937_64 rng(seed);
    for (const auto& [n, S] : {std::pair{30, 3}, {128, 8}, {257, 16}}) {
      const ShardPartition policy =
          seed % 2 ? ShardPartition::kHash : ShardPartition::kContiguous;
      ShardMap map(n, S, policy);
      for (int burst = 0; burst < 10; ++burst) {
        for (int i = 0; i < 40; ++i) {
          const NodeId node = static_cast<NodeId>(1 + rng() % n);
          const int target = static_cast<int>(rng() % S);
          map.migrate(node, target);  // emptying a shard is legal map-level
        }
        check_bijection(map, "seed=" + std::to_string(seed) +
                                 " n=" + std::to_string(n) +
                                 " burst=" + std::to_string(burst));
      }

      // The migrated map must equal an independent from-scratch rebuild of
      // its final assignment.
      std::vector<int> assignment(static_cast<std::size_t>(n) + 1, 0);
      for (NodeId id = 1; id <= n; ++id) assignment[static_cast<std::size_t>(id)] = map.shard_of(id);
      const ShardMap rebuilt(n, S, assignment);
      for (NodeId id = 1; id <= n; ++id) {
        ASSERT_EQ(map.shard_of(id), rebuilt.shard_of(id));
        ASSERT_EQ(map.local_of(id), rebuilt.local_of(id));
      }
      for (int s = 0; s < S; ++s)
        ASSERT_EQ(map.shard_size(s), rebuilt.shard_size(s));
    }
  }
}

TEST(MigrationFuzz, MigratedEngineEqualsFromScratchRebuild) {
  // Migration bursts with no serves in between: every affected shard is
  // rebuilt balanced and untouched shards started balanced, so the engine
  // must be structurally identical to one built directly over the final
  // map — and replaying any trace must cost exactly the same.
  for (std::uint64_t seed : {9u, 333u, 70000u}) {
    std::mt19937_64 rng(seed);
    const int n = 80, S = 5, k = 3;
    ShardedNetwork net = ShardedNetwork::balanced(k, n, S,
                                                  ShardPartition::kHash);
    Cost accumulated = 0;
    for (int burst = 0; burst < 6; ++burst) {
      std::vector<Migration> batch;
      std::vector<bool> used(static_cast<std::size_t>(n) + 1, false);
      for (int i = 0; i < 8; ++i) {
        const NodeId node = static_cast<NodeId>(1 + rng() % n);
        const int target = static_cast<int>(rng() % S);
        if (used[static_cast<std::size_t>(node)]) continue;
        if (net.map().shard_of(node) != target &&
            net.map().shard_size(net.map().shard_of(node)) <= 1)
          continue;
        used[static_cast<std::size_t>(node)] = true;
        batch.push_back({node, target});
      }
      accumulated += net.apply_migrations(std::move(batch)).total_cost();
    }

    std::vector<int> assignment(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId id = 1; id <= n; ++id) assignment[static_cast<std::size_t>(id)] = net.map().shard_of(id);
    ShardedNetwork rebuilt(k, ShardMap(n, S, assignment));

    for (int s = 0; s < S; ++s) {
      const KAryTree& ta = net.shard(s).tree();
      const KAryTree& tb = rebuilt.shard(s).tree();
      ASSERT_EQ(ta.size(), tb.size()) << "seed=" << seed << " shard " << s;
      ASSERT_TRUE(ta.valid());
      for (NodeId id = 1; id <= ta.size(); ++id) {
        ASSERT_EQ(ta.parent(id), tb.parent(id))
            << "seed=" << seed << " shard " << s << " local " << id;
        ASSERT_EQ(ta.slot_in_parent(id), tb.slot_in_parent(id));
      }
    }

    const Trace probe = gen_workload(WorkloadKind::kUniform, n, 1500, seed);
    const SimResult a = run_trace_sharded(net, probe);
    const SimResult b = run_trace_sharded(rebuilt, probe);
    EXPECT_EQ(a.routing_cost, b.routing_cost) << "seed=" << seed;
    EXPECT_EQ(a.rotation_count, b.rotation_count) << "seed=" << seed;
    EXPECT_EQ(a.edge_changes, b.edge_changes) << "seed=" << seed;
    EXPECT_EQ(a.cross_shard, b.cross_shard) << "seed=" << seed;
    EXPECT_GT(accumulated, 0) << "seed=" << seed;
  }
}

TEST(MigrationFuzz, ShardsStayValidUnderInterleavedServesAndMigrations) {
  for (std::uint64_t seed : {5u, 123u, 999u}) {
    std::mt19937_64 rng(seed);
    const int n = 72, S = 6, k = 2;
    ShardedNetwork net = ShardedNetwork::balanced(k, n, S);
    const Trace traffic = gen_workload(WorkloadKind::kTemporal05, n, 6000,
                                       seed * 31 + 1);
    std::size_t cursor = 0;
    for (int round = 0; round < 12; ++round) {
      // A burst of real traffic...
      for (int i = 0; i < 400 && cursor < traffic.size(); ++i, ++cursor)
        net.serve(traffic[cursor].src, traffic[cursor].dst);
      // ...then a random migration batch.
      std::vector<Migration> batch;
      std::vector<bool> used(static_cast<std::size_t>(n) + 1, false);
      for (int i = 0; i < 5; ++i) {
        const NodeId node = static_cast<NodeId>(1 + rng() % n);
        const int target = static_cast<int>(rng() % S);
        if (used[static_cast<std::size_t>(node)]) continue;
        if (net.map().shard_of(node) != target &&
            net.map().shard_size(net.map().shard_of(node)) <= 1)
          continue;
        used[static_cast<std::size_t>(node)] = true;
        batch.push_back({node, target});
      }
      net.apply_migrations(std::move(batch));

      int total = 0;
      for (int s = 0; s < S; ++s) {
        const auto err = net.shard(s).tree().validate();
        ASSERT_FALSE(err.has_value())
            << "seed=" << seed << " round=" << round << " shard " << s
            << ": " << *err;
        total += net.shard(s).size();
      }
      ASSERT_EQ(total, n);
      check_bijection(net.map(), "engine seed=" + std::to_string(seed));
    }
  }
}

TEST(MigrationFuzz, LifecycleStormKeepsFleetConsistent) {
  // Random interleaved split / merge / kill+recover / replica bursts over
  // live serve traffic: after every burst the ShardMap must still be a
  // bijection, every shard tree must validate clean, and the fleet must
  // own exactly n nodes. Kills alternate between snapshot-restore and
  // replica promotion so both recovery paths are fuzzed.
  for (std::uint64_t seed : {7u, 271u, 31337u}) {
    std::mt19937_64 rng(seed);
    const int n = 96, k = 3;
    ShardedNetwork net = ShardedNetwork::balanced(k, n, 4,
                                                  ShardPartition::kHash);
    const Trace traffic = gen_workload(WorkloadKind::kTemporal075, n, 8000,
                                       seed * 17 + 3);
    std::size_t cursor = 0;
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 300 && cursor < traffic.size(); ++i, ++cursor)
        net.serve(traffic[cursor].src, traffic[cursor].dst);

      const int S = net.num_shards();
      switch (rng() % 4) {
        case 0: {  // split a random splittable shard
          const int s = static_cast<int>(rng() % S);
          if (net.map().shard_size(s) >= 2) net.split_shard(s);
          break;
        }
        case 1: {  // merge two random distinct shards
          if (S >= 2) {
            const int a = static_cast<int>(rng() % S);
            int b = static_cast<int>(rng() % S);
            if (a == b) b = (b + 1) % S;
            net.merge_shards(a, b);
          }
          break;
        }
        case 2: {  // kill + snapshot-restore a random shard
          const int s = static_cast<int>(rng() % S);
          const std::string snap = net.snapshot_shard(s);
          net.restore_shard(s, snap);
          break;
        }
        default: {  // replica attach, kill, promote
          const int s = static_cast<int>(rng() % S);
          if (!net.has_replica(s)) net.add_replica(s);
          net.promote_replica(s);
          break;
        }
      }

      int total = 0;
      for (int s = 0; s < net.num_shards(); ++s) {
        const auto err = net.shard(s).tree().validate();
        ASSERT_FALSE(err.has_value())
            << "seed=" << seed << " round=" << round << " shard " << s
            << ": " << *err;
        ASSERT_EQ(net.shard(s).size(), net.map().shard_size(s));
        total += net.shard(s).size();
      }
      ASSERT_EQ(total, n) << "seed=" << seed << " round=" << round;
      check_bijection(net.map(),
                      "lifecycle seed=" + std::to_string(seed) +
                          " round=" + std::to_string(round));
    }
    ASSERT_LT(cursor, traffic.size() + 1);  // traffic actually flowed
  }
}

}  // namespace
}  // namespace san
