// Node-space partitioning for the sharded serving engine.
//
// A ShardMap splits the identifier space 1..n into S disjoint shards, each
// of which is served by an independent self-adjusting tree
// (sim/sharded_network.hpp). Two policies:
//   * kContiguous — shard s owns a contiguous id range; sizes differ by at
//     most one. Preserves range locality (neighbouring ids co-locate).
//   * kHash      — ids are scattered by a fixed 64-bit mix (splitmix64),
//     spreading hot id ranges across shards for load balance.
// Within a shard, nodes get dense *local* ids 1..|shard| in ascending
// global-id order, so every shard is itself a valid search-tree id space
// and global order is preserved inside each shard.
//
// partition_trace() projects a trace onto the shards: an intra-shard
// request becomes one local serve op on its shard; a cross-shard request
// decomposes into one root-ascent op per endpoint shard (the endpoints are
// splayed to their shard roots, the remaining route runs over the static
// top-level tree and carries no adjustment). Because shards share no
// state, the per-shard op order — which partition_trace fixes to arrival
// order — fully determines every shard's cost, independent of how the
// queues are later interleaved or parallelized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "workload/request.hpp"

namespace san {

/// Collision-free 64-bit key of an *unordered* node pair (ids are 31-bit
/// positive): min id in the high word, max in the low. Keys the rebalance
/// window's pair histogram.
inline std::uint64_t pack_node_pair(NodeId a, NodeId b) {
  if (a > b) {
    const NodeId t = a;
    a = b;
    b = t;
  }
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

enum class ShardPartition {
  kContiguous,  ///< shard s owns ids [s*n/S-ish range]; sizes differ by <= 1
  kHash,        ///< splitmix64(id) % S; sizes concentrate around n/S
  kExplicit,    ///< caller-supplied assignment (rebuilds, fuzz references)
};

const char* shard_partition_name(ShardPartition policy);

/// Node -> (shard, local id) mapping. Construction validates 1 <= shards
/// <= n and that no shard is empty (hash can starve a shard only when n is
/// tiny relative to S). After construction the map can evolve one node at
/// a time through migrate(), which keeps local ids dense and rank-ordered;
/// migrate() may drain a shard to empty (the serving engine layers its own
/// no-empty-shard guard on top, sim/sharded_network.hpp).
class ShardMap {
 public:
  ShardMap(int n, int shards, ShardPartition policy = ShardPartition::kContiguous);

  /// From-scratch rebuild of an explicit assignment: `assignment[id]` is
  /// the shard of node id (index 0 unused). Unlike the policy constructor
  /// this allows empty shards — it is the reference a sequence of
  /// migrate() calls is checked against (tests/test_migration_fuzz.cpp).
  ShardMap(int n, int shards, const std::vector<int>& assignment);

  /// Moves one node to `to_shard` (no-op when it already lives there).
  /// Local ids recompact on both sides: the source shard's locals above
  /// the extracted rank shift down, the destination's locals at and above
  /// the insertion rank shift up, so both shards keep dense 1..|shard|
  /// local ids in ascending global order. O(|source| + |destination|).
  void migrate(NodeId id, int to_shard);

  /// Tablet-style shard split: the upper floor(size/2) local ranks of
  /// `shard` move to a brand-new shard appended with id shards(); the
  /// lower ceil(size/2) ranks stay. Both halves keep dense rank-ordered
  /// locals (the staying half's locals are untouched). Returns the new
  /// shard's id. Requires shard_size(shard) >= 2. O(|shard|).
  int split(int shard);

  /// Tablet-style shard merge: folds shard `from` into shard `into`
  /// (their rank-ordered global lists are merged, locals recompact) and
  /// removes `from`'s slot, so every shard id above `from` shifts down by
  /// one. Returns the post-merge id of the combined shard (`into`,
  /// shifted down when into > from). Requires into != from. O(n).
  int merge(int into, int from);

  int n() const { return n_; }
  int shards() const { return shards_; }
  ShardPartition policy() const { return policy_; }

  int shard_of(NodeId id) const { return shard_of_[check(id)]; }
  /// Dense 1-based id of `id` inside its shard.
  NodeId local_of(NodeId id) const { return local_of_[check(id)]; }
  /// Inverse mapping: global id of local node `local` (1-based) of `shard`.
  NodeId global_of(int shard, NodeId local) const {
    return globals_[static_cast<std::size_t>(shard)]
                   [static_cast<std::size_t>(local - 1)];
  }
  int shard_size(int shard) const {
    return static_cast<int>(globals_[static_cast<std::size_t>(shard)].size());
  }

 private:
  std::size_t check(NodeId id) const {
    if (id < 1 || id > n_) throw TreeError("ShardMap: node id out of range");
    return static_cast<std::size_t>(id);
  }

  int n_;
  int shards_;
  ShardPartition policy_;
  std::vector<std::int32_t> shard_of_;        ///< [global id] -> shard, 1-based index
  std::vector<NodeId> local_of_;              ///< [global id] -> local id
  std::vector<std::vector<NodeId>> globals_;  ///< [shard][local-1] -> global id
};

/// One queued operation on a shard, in local ids. `dst == kNoNode` marks a
/// root ascent (the shard-side half of a cross-shard request): the node is
/// splayed to the shard root and charged its pre-adjustment depth.
struct ShardOp {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;

  bool is_ascent() const { return dst == kNoNode; }
  friend bool operator==(const ShardOp&, const ShardOp&) = default;
};

/// A trace projected onto per-shard queues (arrival order preserved within
/// each queue) plus the cross-shard pair histogram needed to cost the
/// top-level routes.
struct PartitionedTrace {
  std::vector<std::vector<ShardOp>> ops;  ///< [shard] -> local op queue
  /// Count of cross-shard requests per ordered (src shard, dst shard) pair,
  /// flattened row-major: cross_pairs[a * S + b].
  std::vector<std::size_t> cross_pairs;
  std::size_t cross_requests = 0;
  std::size_t total_requests = 0;
};

PartitionedTrace partition_trace(const Trace& trace, const ShardMap& map);
/// Span overload: projects one contiguous slice of a trace — what the
/// rebalancing pipeline feeds between epochs. Queues drained chunk by
/// chunk concatenate to exactly the whole-trace projection.
PartitionedTrace partition_trace(std::span<const Request> requests,
                                 const ShardMap& map);

/// Per-shard locality profile of a trace under a ShardMap: how much of the
/// traffic stays inside one shard, and how evenly the serving work spreads.
struct ShardLocalityStats {
  int shards = 0;
  std::vector<std::size_t> intra;    ///< [shard] requests fully inside it
  std::vector<std::size_t> touches;  ///< [shard] endpoint touches (load proxy)
  std::vector<int> owned;            ///< [shard] nodes the map assigns to it
  std::size_t cross_requests = 0;
  std::size_t total_requests = 0;

  /// Shards that own no nodes (possible after migrate() drains one).
  int empty_shards() const;

  /// Fraction of requests served without touching the top-level tree.
  double intra_fraction() const {
    return total_requests == 0
               ? 0.0
               : 1.0 - static_cast<double>(cross_requests) /
                           static_cast<double>(total_requests);
  }
  /// Max over shards of touches / mean touches; 1.0 = perfectly balanced.
  /// Both max and mean range only over shards that own at least one node:
  /// a shard migration drained to empty can receive no traffic, and letting
  /// it deflate the mean would overstate the imbalance of the shards that
  /// actually serve (with every shard empty of traffic this returns 1.0).
  double load_imbalance() const;
};

/// Every per-shard array is sized from the map's *live* shard count at
/// call time — never a construction-time S — so the stats stay correct
/// after mid-run split/merge reshaped the fleet (locked by
/// Lifecycle.ShardStatsStayLiveAfterSplitMerge).
ShardLocalityStats compute_shard_stats(const Trace& trace,
                                       const ShardMap& map);

}  // namespace san
