// ShardedNetwork: S independent k-ary SplayNet shards under a static
// top-level tree — the partitioned serving engine that lets one heavy
// trace use all cores.
//
// The node space 1..n is split by a ShardMap (workload/partition.hpp) into
// S shards; each shard runs its own KArySplayNet over dense local ids, so
// intra-shard requests keep the exact Section 2 cost accounting of the
// unsharded network. Cross-shard traffic is costed through a static
// top-level tree whose S positions stand for the shard root slots:
//
//   cost(u in a, v in b, a != b) =
//       depth_a(u)            // ascend to shard a's root, splaying u up
//     + d_top(a, b)           // static route between the two root slots
//     + depth_b(v)            // descend into shard b; v splays to its root
//
// Both endpoint shards self-adjust (root ascent = KArySplayNet::access);
// the top-level tree never does, so cross-shard requests pay routing but
// no top-level adjustment — see README "cost-model caveat". With S = 1
// the engine degenerates to exactly one KArySplayNet: same balanced
// initial tree, same serve path, bit-identical SimResults.
//
// Shards share no mutable state, so a trace can be drained one shard per
// worker (sim/simulator.hpp: run_trace_sharded) with costs bit-identical
// to the sequential order. The epoch barrier's rebuilds (apply_migrations,
// split_shard) fan out the same way: each affected shard is rebuilt by one
// worker of a parallel round `threads` wide — 0 = all cores, 1 = inline on
// the caller — and every result, tree and map is the same at any width.
// merge_shards rebuilds one shard, so it always runs inline. The caller
// sizes every rebuilt tree's storage before the round, so workers
// allocate no tree storage: what a worker allocates stays resident in its
// own malloc arena, and rebuilds sized there cost peak RSS without saving
// time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/splaynet.hpp"
#include "workload/partition.hpp"
#include "workload/rebalance.hpp"

namespace san {

/// Cost breakdown of one applied migration batch (see
/// ShardedNetwork::apply_migrations for the model).
struct MigrationResult {
  int migrated = 0;
  Cost extraction_routing = 0;    ///< levels climbed splaying nodes to roots
  Cost extraction_rotations = 0;  ///< k-splay / k-semi-splay steps of those
  Cost relink_edges = 0;          ///< edge symmetric difference of rebuilds

  /// Unit-cost total, same convention as SimResult::total_cost.
  Cost total_cost() const {
    return extraction_routing + extraction_rotations + relink_edges;
  }
};

/// Cost breakdown of one shard lifecycle operation (split or merge).
struct LifecycleResult {
  /// split: id of the freshly created shard; merge: id of the combined
  /// shard after the slot compaction.
  int shard = -1;
  /// Edge symmetric difference (global-id terms) between the affected
  /// shards' trees before and after the rebuild — same Section 2 link
  /// pricing apply_migrations uses.
  Cost relink_edges = 0;
  /// Top-level tree re-slot cost: the fleet size changed, so the static
  /// top tree is torn down and rebuilt over the new S slots; charged as
  /// old edge count + new edge count (conservative full rewire).
  Cost top_edges = 0;

  Cost total_cost() const { return relink_edges + top_edges; }
};

class ShardedNetwork {
 public:
  /// Builds balanced per-shard trees of arity `k` over `map`'s shards.
  ShardedNetwork(int k, ShardMap map, SplayMode mode = SplayMode::kFullSplay);

  /// Convenience: balanced shards over a fresh ShardMap(n, shards, partition).
  static ShardedNetwork balanced(
      int k, int n, int shards,
      ShardPartition partition = ShardPartition::kContiguous,
      SplayMode mode = SplayMode::kFullSplay);

  /// Serves one request in global ids; self-adjusts the touched shard(s).
  ServeResult serve(NodeId u, NodeId v);

  /// Serves one op of shard `s` in its local ids: `v == kNoNode` is a root
  /// ascent (one half of a cross-shard request), splaying `u` to the shard
  /// root at its pre-adjustment depth; anything else an intra-shard serve.
  /// A replicated shard answers intra serves from its lockstep replica
  /// (bit-identical results) and mirrors every op into the other copy, so
  /// the pair never diverges and the cost is charged once. The one
  /// replica-mirrored serve: serve() and both engines' drains call it.
  ServeResult serve_local(int s, NodeId u, NodeId v) {
    KArySplayNet& primary = shards_[static_cast<std::size_t>(s)];
    KArySplayNet* rep = replicas_[static_cast<std::size_t>(s)].get();
    if (rep == nullptr)
      return v == kNoNode ? primary.access(u) : primary.serve(u, v);
    if (v == kNoNode) {
      rep->access(u);
      return primary.access(u);
    }
    primary.serve(u, v);
    return rep->serve(u, v);
  }

  int size() const { return map_.n(); }
  int arity() const { return k_; }
  int num_shards() const { return map_.shards(); }
  std::string name() const;

  const ShardMap& map() const { return map_; }
  /// Mutable shard access for the batched pipeline; shard s serves local
  /// ids 1..map().shard_size(s).
  KArySplayNet& shard(int s) { return shards_[static_cast<std::size_t>(s)]; }
  const KArySplayNet& shard(int s) const {
    return shards_[static_cast<std::size_t>(s)];
  }

  /// Static top-level distance between the root slots of shards a and b
  /// (0 when a == b). Precomputed at construction.
  Cost top_distance(int a, int b) const {
    return top_dist_[static_cast<std::size_t>(a) *
                         static_cast<std::size_t>(map_.shards()) +
                     static_cast<std::size_t>(b)];
  }

  /// Cross-shard requests served so far (serve() and run_trace_sharded both
  /// maintain it); run_trace snapshots the delta into SimResult::cross_shard.
  Cost cross_shard_served() const { return cross_served_; }
  void note_cross_served(Cost requests) { cross_served_ += requests; }

  /// Applies one rebalancing batch between drains (the batch is processed
  /// in ascending node order, no-ops dropped):
  ///   1. *Extraction*: each migrating node is splayed to its source
  ///      shard's root (KArySplayNet::access) — the splay-tree deletion
  ///      idiom — and the ascent's routing + rotation cost is charged to
  ///      the batch.
  ///   2. The ShardMap migrates each node (dense local ids recompact).
  ///   3. Every affected shard rebuilds a balanced tree over its new local
  ///      id space, one shard per worker of a `threads`-wide round (see the
  ///      file comment); the structural cost charged is the edge symmetric
  ///      difference between the post-extraction and rebuilt topologies in
  ///      global-id terms — this prices both the root detach and the
  ///      re-insert at the destination root in Section 2 link units.
  /// Throws TreeError (before touching anything) if the batch would drain
  /// a shard below one node, since a shard serves a non-empty tree.
  MigrationResult apply_migrations(std::vector<Migration> batch,
                                   int threads = 0);

  /// Engine-derived planning estimates: cross_penalty = mean top-level
  /// route plus the second root ascent; migration_cost = a balanced-depth
  /// extraction plus a per-node relink share.
  RebalanceCostHints cost_hints() const;

  // ---- tablet-style shard lifecycle -----------------------------------

  /// Splits shard `s` at its local-rank midpoint: the upper half of its
  /// nodes becomes a brand-new shard (id = old shards()), both halves are
  /// rebuilt balanced over their compacted local id spaces, and the top
  /// tree is re-slotted over S+1 positions. A replica of `s` is dropped
  /// (its state described the unsplit shard). The two halves rebuild in a
  /// `threads`-wide round. Throws TreeError when the shard has fewer than
  /// 2 nodes.
  LifecycleResult split_shard(int s, int threads = 0);

  /// Merges shard `from` into shard `into`: the combined shard rebuilds
  /// balanced, `from`'s slot disappears (shard ids above it shift down),
  /// and the top tree re-slots over S-1 positions. Replicas of both
  /// operands are dropped; replicas of other shards keep following their
  /// (re-numbered) primaries. Returns the combined shard's post-merge id.
  LifecycleResult merge_shards(int into, int from);

  // ---- read replicas --------------------------------------------------
  // A replica is a lockstep state-machine copy of its primary: serve_local
  // mirrors every op into it, so it is staleness-free by construction. A
  // replicated shard also recovers from a crash by promotion instead of
  // snapshot replay.

  /// Attaches a replica to shard `s` (a copy of its current tree);
  /// replaces any existing one.
  void add_replica(int s);
  void drop_replica(int s);
  bool has_replica(int s) const {
    return replicas_[static_cast<std::size_t>(s)] != nullptr;
  }
  int num_replicas() const;
  const KArySplayNet& replica(int s) const;
  /// Intra-shard ops answered from a replica by serve() (the drain
  /// pipelines count their own into SimResult::replica_reads).
  Cost replica_reads_served() const { return replica_reads_; }

  // ---- crash recovery -------------------------------------------------

  /// Shard `s`'s current topology as a tree image (io/tree_io.hpp): a
  /// header, one fixed-size record of keys and children per node and a
  /// CRC32 trailer over the rest — the snapshot a crash recovery restores
  /// from. In-memory state in native byte order, not a file format.
  std::string snapshot_shard(int s) const;

  /// Simulated crash recovery: replaces shard `s`'s (lost) tree with the
  /// topology decoded from `snap`. The decoder checks the image's length,
  /// CRC and header before it allocates, range-checks every record before
  /// it indexes with it and validates the tree it built; the tree must
  /// then match the shard's arity and current node count. A rejected
  /// snapshot throws TreeError and leaves the shard as it was. A replica
  /// of `s` is refreshed to the restored state. The caller replays the
  /// ops the shard served since the snapshot, in served order, to reach
  /// the exact pre-crash state.
  void restore_shard(int s, const std::string& snap);

  /// Replica failover: primary becomes a copy of the lockstep replica
  /// (which holds the exact pre-crash state). Throws when unreplicated.
  void promote_replica(int s);

 private:
  /// Parent links of `shards` in global ids, indexed by global node id
  /// (kNoNode for shard roots and for nodes of other shards).
  std::vector<NodeId> global_parents(const std::vector<int>& shards) const;
  /// The barrier round shared by migrations, split and merge, run after
  /// the map has changed: resets `shards`' trees to their new sizes on the
  /// caller, rebuilds each balanced and validates it on a worker of a
  /// `threads`-wide round (largest first), refreshes their replicas, and
  /// returns the Section 2 link price — the edge symmetric difference
  /// between `before` (global_parents() taken before the map changed) and
  /// the rebuilt links. `shards` must own the nodes `before` covers.
  Cost rebuild(const std::vector<int>& shards,
               const std::vector<NodeId>& before, int threads);
  /// Shard `s`'s share of that price: -1 per rebuilt link that `before`
  /// holds either way round, +1 per new one.
  Cost relinks_of(int s, const std::vector<NodeId>& before) const;
  void rebuild_top();
  void check_shard(int s, const char* what) const;

  int k_;
  ShardMap map_;
  SplayMode mode_;
  std::vector<KArySplayNet> shards_;
  /// [shard] -> lockstep replica, null when unreplicated.
  std::vector<std::unique_ptr<KArySplayNet>> replicas_;
  std::vector<Cost> top_dist_;  ///< S x S static route lengths, row-major
  Cost cross_served_ = 0;
  Cost replica_reads_ = 0;
};

}  // namespace san
