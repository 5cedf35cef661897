#include "sim/sharded_network.hpp"

#include <algorithm>

#include "core/parallel.hpp"
#include "io/tree_io.hpp"
#include "static_trees/full_tree.hpp"

namespace san {

ShardedNetwork::ShardedNetwork(int k, ShardMap map, SplayMode mode)
    : k_(k), map_(std::move(map)), mode_(mode) {
  const int S = map_.shards();
  shards_.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    if (map_.shard_size(s) == 0)
      throw TreeError("ShardedNetwork: shard " + std::to_string(s) +
                      " owns no nodes");
    shards_.push_back(KArySplayNet::balanced(k, map_.shard_size(s),
                                             RotationPolicy{}, mode));
  }
  replicas_.resize(static_cast<std::size_t>(S));
  rebuild_top();
}

void ShardedNetwork::rebuild_top() {
  // The top-level tree is a demand-oblivious complete k-ary tree over the
  // S root slots (slot s = node s+1); it is consulted only through this
  // precomputed distance table, so S = 1 simply leaves it all-zero. Called
  // again by split/merge whenever the fleet size changes.
  const int S = map_.shards();
  top_dist_.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(S),
                   0);
  if (S > 1) {
    const KAryTree top = full_kary_tree(k_, S);
    for (int a = 0; a < S; ++a)
      for (int b = 0; b < S; ++b)
        if (a != b)
          top_dist_[static_cast<std::size_t>(a) * static_cast<std::size_t>(S) +
                    static_cast<std::size_t>(b)] =
              top.distance(static_cast<NodeId>(a + 1),
                           static_cast<NodeId>(b + 1));
  }
}

void ShardedNetwork::check_shard(int s, const char* what) const {
  if (s < 0 || s >= map_.shards())
    throw TreeError(std::string(what) + ": shard " + std::to_string(s) +
                    " out of range (S=" + std::to_string(map_.shards()) + ")");
}

ShardedNetwork ShardedNetwork::balanced(int k, int n, int shards,
                                        ShardPartition partition,
                                        SplayMode mode) {
  return ShardedNetwork(k, ShardMap(n, shards, partition), mode);
}

ServeResult ShardedNetwork::serve(NodeId u, NodeId v) {
  const int a = map_.shard_of(u);
  const int b = map_.shard_of(v);
  if (a == b) {
    if (has_replica(a)) ++replica_reads_;
    return serve_local(a, map_.local_of(u), map_.local_of(v));
  }
  ++cross_served_;
  const ServeResult up = serve_local(a, map_.local_of(u), kNoNode);
  const ServeResult down = serve_local(b, map_.local_of(v), kNoNode);
  ServeResult res;
  res.routing_cost = up.routing_cost + top_distance(a, b) + down.routing_cost;
  res.rotations = up.rotations + down.rotations;
  res.parent_changes = up.parent_changes + down.parent_changes;
  res.edge_changes = up.edge_changes + down.edge_changes;
  return res;
}

std::string ShardedNetwork::name() const {
  return "sharded[" + std::to_string(num_shards()) + "," +
         shard_partition_name(map_.policy()) + "] " + shards_.front().name();
}

std::vector<NodeId> ShardedNetwork::global_parents(
    const std::vector<int>& shards) const {
  // Global ids survive the local-id recompaction a rebuild causes, so
  // relink_edges() can match these links against the rebuilt ones.
  std::vector<NodeId> parent(static_cast<std::size_t>(map_.n()) + 1, kNoNode);
  for (int s : shards) {
    const KAryTree& t = shards_[static_cast<std::size_t>(s)].tree();
    for (NodeId local = 1; local <= t.size(); ++local)
      if (const NodeId p = t.parent(local); p != kNoNode)
        parent[static_cast<std::size_t>(map_.global_of(s, local))] =
            map_.global_of(s, p);
  }
  return parent;
}

Cost ShardedNetwork::relinks_of(int s,
                                const std::vector<NodeId>& before) const {
  // A rebuilt link g->h is shared when it existed before either way round:
  // -1 for each shared link, +1 for each new one.
  Cost links = 0;
  const KAryTree& t = shards_[static_cast<std::size_t>(s)].tree();
  for (NodeId local = 1; local <= t.size(); ++local) {
    const NodeId p = t.parent(local);
    if (p == kNoNode) continue;
    const NodeId g = map_.global_of(s, local);
    const NodeId h = map_.global_of(s, p);
    links += before[static_cast<std::size_t>(g)] == h ||
                     before[static_cast<std::size_t>(h)] == g
                 ? -1
                 : 1;
  }
  return links;
}

Cost ShardedNetwork::rebuild(const std::vector<int>& shards,
                             const std::vector<NodeId>& before, int threads) {
  // Storage is sized here, on the caller: a worker's allocations land in
  // its own malloc arena, which keeps the freed pages resident, so trees
  // resized inside the round would raise peak RSS for nothing.
  for (int s : shards) shard(s).tree_mut().reset(map_.shard_size(s));
  // Largest first: the round lasts as long as its slowest worker.
  std::vector<int> order = shards;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int sa = map_.shard_size(a), sb = map_.shard_size(b);
    return sa != sb ? sa > sb : a < b;
  });
  std::vector<Cost> relinks(order.size());
  parallel_for(0, static_cast<long>(order.size()), threads, [&](long i) {
    const int s = order[static_cast<std::size_t>(i)];
    KAryTree& t = shard(s).tree_mut();
    t.set_root(install_shape(t, make_complete_shape(t.size(), k_), 1, kKeyMin,
                             kKeyMax));
    if (auto err = t.validate())
      throw TreeError("rebuild: shard " + std::to_string(s) +
                      " has an invalid balanced topology: " + *err);
    relinks[static_cast<std::size_t>(i)] = relinks_of(s, before);
  });
  // |before| + |after| - 2|both|: the per-shard counts hold the last two
  // terms, and integer sums do not depend on which worker ran what.
  Cost links = static_cast<Cost>(
      std::count_if(before.begin(), before.end(),
                    [](NodeId p) { return p != kNoNode; }));
  for (const Cost c : relinks) links += c;
  for (int s : shards)
    if (replicas_[static_cast<std::size_t>(s)])
      *replicas_[static_cast<std::size_t>(s)] =
          shards_[static_cast<std::size_t>(s)];
  return links;
}

MigrationResult ShardedNetwork::apply_migrations(std::vector<Migration> batch,
                                                 int threads) {
  MigrationResult res;

  // Normalize: drop no-ops, validate, fixed ascending-node order so the
  // result is independent of how the planner emitted the batch.
  std::erase_if(batch, [&](const Migration& m) {
    if (m.node < 1 || m.node > map_.n())
      throw TreeError("apply_migrations: node id out of range");
    if (m.to_shard < 0 || m.to_shard >= map_.shards())
      throw TreeError("apply_migrations: shard out of range");
    return map_.shard_of(m.node) == m.to_shard;
  });
  if (batch.empty()) return res;
  std::sort(batch.begin(), batch.end(),
            [](const Migration& a, const Migration& b) {
              return a.node < b.node;
            });
  for (std::size_t i = 1; i < batch.size(); ++i)
    if (batch[i].node == batch[i - 1].node)
      throw TreeError("apply_migrations: node migrated twice in one batch");

  // Reject draining before any state changes. Only the *final* sizes
  // matter: extractions run on the untouched trees and rebuilds happen
  // after the whole batch remaps, so a shard transiently empty mid-remap
  // is fine — one left empty at the end is not.
  {
    std::vector<int> owned(static_cast<std::size_t>(map_.shards()));
    for (int s = 0; s < map_.shards(); ++s)
      owned[static_cast<std::size_t>(s)] = map_.shard_size(s);
    for (const Migration& m : batch) {
      --owned[static_cast<std::size_t>(map_.shard_of(m.node))];
      ++owned[static_cast<std::size_t>(m.to_shard)];
    }
    for (int s = 0; s < map_.shards(); ++s)
      if (owned[static_cast<std::size_t>(s)] < 1)
        throw TreeError("apply_migrations: batch would drain shard " +
                        std::to_string(s));
  }

  std::vector<int> affected;
  for (const Migration& m : batch) {
    affected.push_back(map_.shard_of(m.node));
    affected.push_back(m.to_shard);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // Phase 1 — extraction: splay every migrating node to its source shard's
  // root under the *old* map (successive extractions from one shard act on
  // the progressively adjusted tree, like any other access sequence).
  for (const Migration& m : batch) {
    const ServeResult up =
        shard(map_.shard_of(m.node)).access(map_.local_of(m.node));
    res.extraction_routing += up.routing_cost;
    res.extraction_rotations += up.rotations;
  }
  const std::vector<NodeId> before = global_parents(affected);

  // Phase 2 — remap and rebuild the affected shards balanced over their
  // compacted local id spaces. Replicas of affected shards are refreshed
  // to the rebuilt primary so the lockstep invariant survives migrations.
  for (const Migration& m : batch) map_.migrate(m.node, m.to_shard);
  res.relink_edges = rebuild(affected, before, threads);
  res.migrated = static_cast<int>(batch.size());
  return res;
}

namespace {

/// Edge count of the static complete k-ary top tree over S slots.
Cost top_edge_count(int S) { return S > 1 ? static_cast<Cost>(S - 1) : 0; }

}  // namespace

LifecycleResult ShardedNetwork::split_shard(int s, int threads) {
  check_shard(s, "split_shard");
  if (map_.shard_size(s) < 2)
    throw TreeError("split_shard: shard " + std::to_string(s) +
                    " needs >= 2 nodes to split");
  LifecycleResult res;
  const int s_old = map_.shards();
  res.top_edges = top_edge_count(s_old);

  const std::vector<NodeId> before = global_parents({s});
  const int fresh = map_.split(s);
  // A one-node placeholder for the new shard; rebuild() sizes and fills it.
  shards_.push_back(KArySplayNet::balanced(k_, 1, RotationPolicy{}, mode_));
  // The old replica described the unsplit shard; drop it (the planner can
  // re-replicate either half next epoch).
  replicas_[static_cast<std::size_t>(s)].reset();
  replicas_.push_back(nullptr);
  res.relink_edges = rebuild({s, fresh}, before, threads);
  rebuild_top();
  res.top_edges += top_edge_count(map_.shards());
  res.shard = fresh;
  return res;
}

LifecycleResult ShardedNetwork::merge_shards(int into, int from) {
  check_shard(into, "merge_shards");
  check_shard(from, "merge_shards");
  if (into == from) throw TreeError("merge_shards: into == from");
  LifecycleResult res;
  res.top_edges = top_edge_count(map_.shards());

  const std::vector<NodeId> before = global_parents({into, from});
  replicas_[static_cast<std::size_t>(into)].reset();
  replicas_[static_cast<std::size_t>(from)].reset();
  replicas_.erase(replicas_.begin() + from);
  const int at = map_.merge(into, from);
  shards_.erase(shards_.begin() + from);
  res.relink_edges = rebuild({at}, before, 1);
  rebuild_top();
  res.top_edges += top_edge_count(map_.shards());
  res.shard = at;
  return res;
}

void ShardedNetwork::add_replica(int s) {
  check_shard(s, "add_replica");
  replicas_[static_cast<std::size_t>(s)] =
      std::make_unique<KArySplayNet>(shards_[static_cast<std::size_t>(s)]);
}

void ShardedNetwork::drop_replica(int s) {
  check_shard(s, "drop_replica");
  replicas_[static_cast<std::size_t>(s)].reset();
}

int ShardedNetwork::num_replicas() const {
  int count = 0;
  for (const auto& r : replicas_)
    if (r) ++count;
  return count;
}

const KArySplayNet& ShardedNetwork::replica(int s) const {
  check_shard(s, "replica");
  if (!replicas_[static_cast<std::size_t>(s)])
    throw TreeError("replica: shard " + std::to_string(s) +
                    " is not replicated");
  return *replicas_[static_cast<std::size_t>(s)];
}

std::string ShardedNetwork::snapshot_shard(int s) const {
  check_shard(s, "snapshot_shard");
  return write_tree_image(shards_[static_cast<std::size_t>(s)].tree());
}

void ShardedNetwork::restore_shard(int s, const std::string& snap) {
  check_shard(s, "restore_shard");
  KAryTree tree = read_tree_image(snap);  // checksummed + validated
  if (tree.arity() != k_)
    throw TreeError("restore_shard: snapshot arity " +
                    std::to_string(tree.arity()) + " != engine arity " +
                    std::to_string(k_));
  if (tree.size() != map_.shard_size(s))
    throw TreeError("restore_shard: snapshot has " +
                    std::to_string(tree.size()) + " nodes, shard " +
                    std::to_string(s) + " owns " +
                    std::to_string(map_.shard_size(s)));
  shard(s).tree_mut() = std::move(tree);  // validated by the decoder
  if (replicas_[static_cast<std::size_t>(s)])
    *replicas_[static_cast<std::size_t>(s)] =
        shards_[static_cast<std::size_t>(s)];
}

void ShardedNetwork::promote_replica(int s) {
  check_shard(s, "promote_replica");
  if (!replicas_[static_cast<std::size_t>(s)])
    throw TreeError("promote_replica: shard " + std::to_string(s) +
                    " is not replicated");
  shards_[static_cast<std::size_t>(s)] = *replicas_[static_cast<std::size_t>(s)];
}

RebalanceCostHints ShardedNetwork::cost_hints() const {
  RebalanceCostHints hints;
  const int S = map_.shards();
  if (S > 1) {
    Cost top_sum = 0;
    for (int a = 0; a < S; ++a)
      for (int b = 0; b < S; ++b)
        if (a != b) top_sum += top_distance(a, b);
    const Cost top_pairs = static_cast<Cost>(S) * (S - 1);
    // A colocated request saves the top route plus one of the two root
    // ascents (integer inputs, so the value is bit-stable).
    const double avg_shard =
        static_cast<double>(map_.n()) / static_cast<double>(S);
    int depth_est = 0;
    for (double cap = 1.0; cap < avg_shard; cap = cap * k_ + 1.0) ++depth_est;
    hints.cross_penalty =
        static_cast<double>(top_sum) / static_cast<double>(top_pairs) +
        depth_est;
    // Extraction climbs about a balanced depth; the rebuild relinks a few
    // edges per migrated node once batches amortize the shard rewires.
    hints.migration_cost = 2.0 * depth_est + 2.0 * k_;
  }
  return hints;
}

}  // namespace san
