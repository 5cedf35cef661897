#include "workload/partition.hpp"

#include <algorithm>
#include <iterator>
#include <string>

#include "core/rng.hpp"

namespace san {

const char* shard_partition_name(ShardPartition policy) {
  switch (policy) {
    case ShardPartition::kContiguous:
      return "contiguous";
    case ShardPartition::kHash:
      return "hash";
    case ShardPartition::kExplicit:
      return "explicit";
  }
  return "?";
}

ShardMap::ShardMap(int n, int shards, ShardPartition policy)
    : n_(n), shards_(shards), policy_(policy) {
  if (n < 1) throw TreeError("ShardMap: need at least one node");
  if (shards < 1 || shards > n)
    throw TreeError("ShardMap: shard count must be in [1, n], got " +
                    std::to_string(shards) + " for n=" + std::to_string(n));

  shard_of_.assign(static_cast<std::size_t>(n) + 1, 0);
  local_of_.assign(static_cast<std::size_t>(n) + 1, kNoNode);
  globals_.assign(static_cast<std::size_t>(shards), {});

  for (NodeId id = 1; id <= n; ++id) {
    int s = 0;
    if (policy == ShardPartition::kContiguous) {
      // First (n % S) shards get ceil(n/S) ids, the rest floor(n/S).
      const int base = n / shards;
      const int big = n % shards;
      const int cut = big * (base + 1);
      s = (id - 1) < cut ? (id - 1) / (base + 1)
                         : big + ((id - 1) - cut) / base;
    } else {
      // splitmix64, not std::hash: the shard assignment is part of the
      // reproducible experiment setup, so it must be stable across
      // platforms.
      s = static_cast<int>(splitmix64_mix(static_cast<std::uint64_t>(id)) %
                           static_cast<std::uint64_t>(shards));
    }
    shard_of_[static_cast<std::size_t>(id)] = s;
    // Ascending-id construction order makes local ids rank-ordered.
    globals_[static_cast<std::size_t>(s)].push_back(id);
    local_of_[static_cast<std::size_t>(id)] =
        static_cast<NodeId>(globals_[static_cast<std::size_t>(s)].size());
  }

  for (int s = 0; s < shards; ++s)
    if (globals_[static_cast<std::size_t>(s)].empty())
      throw TreeError("ShardMap: " + std::string(shard_partition_name(policy)) +
                      " partition left shard " + std::to_string(s) +
                      " empty; use fewer shards");
}

ShardMap::ShardMap(int n, int shards, const std::vector<int>& assignment)
    : n_(n), shards_(shards), policy_(ShardPartition::kExplicit) {
  if (n < 1) throw TreeError("ShardMap: need at least one node");
  if (shards < 1) throw TreeError("ShardMap: need at least one shard");
  if (assignment.size() != static_cast<std::size_t>(n) + 1)
    throw TreeError("ShardMap: assignment must have n+1 entries (index 0 unused)");

  shard_of_.assign(static_cast<std::size_t>(n) + 1, 0);
  local_of_.assign(static_cast<std::size_t>(n) + 1, kNoNode);
  globals_.assign(static_cast<std::size_t>(shards), {});
  for (NodeId id = 1; id <= n; ++id) {
    const int s = assignment[static_cast<std::size_t>(id)];
    if (s < 0 || s >= shards)
      throw TreeError("ShardMap: assignment of node " + std::to_string(id) +
                      " out of range");
    shard_of_[static_cast<std::size_t>(id)] = s;
    globals_[static_cast<std::size_t>(s)].push_back(id);
    local_of_[static_cast<std::size_t>(id)] =
        static_cast<NodeId>(globals_[static_cast<std::size_t>(s)].size());
  }
}

void ShardMap::migrate(NodeId id, int to_shard) {
  check(id);
  if (to_shard < 0 || to_shard >= shards_)
    throw TreeError("ShardMap::migrate: shard " + std::to_string(to_shard) +
                    " out of range");
  const int from = shard_of_[static_cast<std::size_t>(id)];
  if (from == to_shard) return;

  // Extract: locals are rank-ordered, so the node's position in its source
  // shard is exactly local_of - 1; everything after it shifts down one.
  std::vector<NodeId>& src = globals_[static_cast<std::size_t>(from)];
  const std::size_t at = static_cast<std::size_t>(
      local_of_[static_cast<std::size_t>(id)] - 1);
  src.erase(src.begin() + static_cast<std::ptrdiff_t>(at));
  for (std::size_t i = at; i < src.size(); ++i)
    --local_of_[static_cast<std::size_t>(src[i])];

  // Insert at the global-id rank position of the destination; everything
  // at or after it shifts up one, keeping locals dense and rank-ordered.
  std::vector<NodeId>& dst = globals_[static_cast<std::size_t>(to_shard)];
  const auto pos = std::lower_bound(dst.begin(), dst.end(), id);
  const std::size_t rank = static_cast<std::size_t>(pos - dst.begin());
  for (auto it = pos; it != dst.end(); ++it)
    ++local_of_[static_cast<std::size_t>(*it)];
  dst.insert(dst.begin() + static_cast<std::ptrdiff_t>(rank), id);

  shard_of_[static_cast<std::size_t>(id)] = to_shard;
  local_of_[static_cast<std::size_t>(id)] = static_cast<NodeId>(rank + 1);
}

int ShardMap::split(int shard) {
  if (shard < 0 || shard >= shards_)
    throw TreeError("ShardMap::split: shard " + std::to_string(shard) +
                    " out of range");
  std::vector<NodeId>& src = globals_[static_cast<std::size_t>(shard)];
  if (src.size() < 2)
    throw TreeError("ShardMap::split: shard " + std::to_string(shard) +
                    " needs >= 2 nodes to split");

  // The staying half keeps the lower ranks, so its locals are already
  // dense 1..keep; only the moved half needs remapping. The moved list is
  // detached *before* the outer push_back — growing globals_ invalidates
  // the src reference.
  const std::size_t keep = (src.size() + 1) / 2;
  const int fresh = shards_;
  std::vector<NodeId> moved_half(src.begin() + static_cast<std::ptrdiff_t>(keep),
                                 src.end());
  src.resize(keep);
  globals_.push_back(std::move(moved_half));
  ++shards_;
  const std::vector<NodeId>& moved =
      globals_[static_cast<std::size_t>(fresh)];
  for (std::size_t i = 0; i < moved.size(); ++i) {
    shard_of_[static_cast<std::size_t>(moved[i])] = fresh;
    local_of_[static_cast<std::size_t>(moved[i])] =
        static_cast<NodeId>(i + 1);
  }
  return fresh;
}

int ShardMap::merge(int into, int from) {
  if (into < 0 || into >= shards_ || from < 0 || from >= shards_)
    throw TreeError("ShardMap::merge: shard id out of range");
  if (into == from) throw TreeError("ShardMap::merge: into == from");

  std::vector<NodeId>& a = globals_[static_cast<std::size_t>(into)];
  std::vector<NodeId>& b = globals_[static_cast<std::size_t>(from)];
  std::vector<NodeId> combined;
  combined.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(combined));
  a = std::move(combined);
  globals_.erase(globals_.begin() + from);
  --shards_;

  // Everything at or after the first changed slot needs its shard ids and
  // locals rewritten: the combined shard's locals recompacted, and every
  // shard that slid down one slot re-labelled.
  const int at = into > from ? into - 1 : into;
  for (int s = std::min(into, from); s < shards_; ++s) {
    const std::vector<NodeId>& g = globals_[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < g.size(); ++i) {
      shard_of_[static_cast<std::size_t>(g[i])] = s;
      local_of_[static_cast<std::size_t>(g[i])] = static_cast<NodeId>(i + 1);
    }
  }
  return at;
}

PartitionedTrace partition_trace(const Trace& trace, const ShardMap& map) {
  return partition_trace(std::span<const Request>(trace.requests), map);
}

PartitionedTrace partition_trace(std::span<const Request> requests,
                                 const ShardMap& map) {
  const int S = map.shards();
  PartitionedTrace pt;
  pt.ops.assign(static_cast<std::size_t>(S), {});
  pt.cross_pairs.assign(static_cast<std::size_t>(S) * static_cast<std::size_t>(S),
                        0);
  pt.total_requests = requests.size();

  // Size the queues in one counting pass so the fill pass never reallocates.
  std::vector<std::size_t> sizes(static_cast<std::size_t>(S), 0);
  for (const Request& r : requests) {
    const int a = map.shard_of(r.src);
    const int b = map.shard_of(r.dst);
    ++sizes[static_cast<std::size_t>(a)];
    if (a != b) ++sizes[static_cast<std::size_t>(b)];
  }
  for (int s = 0; s < S; ++s)
    pt.ops[static_cast<std::size_t>(s)].reserve(sizes[static_cast<std::size_t>(s)]);

  for (const Request& r : requests) {
    const int a = map.shard_of(r.src);
    const int b = map.shard_of(r.dst);
    if (a == b) {
      pt.ops[static_cast<std::size_t>(a)].push_back(
          {map.local_of(r.src), map.local_of(r.dst)});
    } else {
      pt.ops[static_cast<std::size_t>(a)].push_back(
          {map.local_of(r.src), kNoNode});
      pt.ops[static_cast<std::size_t>(b)].push_back(
          {map.local_of(r.dst), kNoNode});
      ++pt.cross_pairs[static_cast<std::size_t>(a) *
                           static_cast<std::size_t>(S) +
                       static_cast<std::size_t>(b)];
      ++pt.cross_requests;
    }
  }
  return pt;
}

int ShardLocalityStats::empty_shards() const {
  int count = 0;
  for (int o : owned)
    if (o == 0) ++count;
  return count;
}

double ShardLocalityStats::load_imbalance() const {
  if (touches.empty()) return 1.0;
  // Range only over shards that own nodes (see header): an empty shard's
  // zero touches would otherwise deflate the mean toward an inf-like
  // overstatement as migrations drain shards.
  std::size_t max = 0, sum = 0, active = 0;
  for (std::size_t s = 0; s < touches.size(); ++s) {
    if (s < owned.size() && owned[s] == 0) continue;
    ++active;
    max = std::max(max, touches[s]);
    sum += touches[s];
  }
  if (active == 0 || sum == 0) return 1.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return static_cast<double>(max) / mean;
}

ShardLocalityStats compute_shard_stats(const Trace& trace,
                                       const ShardMap& map) {
  const int S = map.shards();
  ShardLocalityStats st;
  st.shards = S;
  st.intra.assign(static_cast<std::size_t>(S), 0);
  st.touches.assign(static_cast<std::size_t>(S), 0);
  st.owned.assign(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s)
    st.owned[static_cast<std::size_t>(s)] = map.shard_size(s);
  st.total_requests = trace.size();
  for (const Request& r : trace.requests) {
    const int a = map.shard_of(r.src);
    const int b = map.shard_of(r.dst);
    ++st.touches[static_cast<std::size_t>(a)];
    if (a == b) {
      ++st.intra[static_cast<std::size_t>(a)];
    } else {
      ++st.touches[static_cast<std::size_t>(b)];
      ++st.cross_requests;
    }
  }
  return st;
}

}  // namespace san
