#include "workload/rebalance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/rng.hpp"

namespace san {
namespace {

std::uint64_t pair_key(NodeId u, NodeId v) { return pack_node_pair(u, v); }

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

const char* rebalance_policy_name(RebalancePolicy policy) {
  switch (policy) {
    case RebalancePolicy::kNone:
      return "none";
    case RebalancePolicy::kHotPair:
      return "hotpair";
    case RebalancePolicy::kWatermark:
      return "watermark";
  }
  return "?";
}

RebalanceState::RebalanceState(RebalanceConfig cfg) : cfg_(cfg) {
  if (cfg_.window_decay < 0.0 || cfg_.window_decay >= 1.0)
    throw TreeError("RebalanceState: window_decay must be in [0, 1)");
  if (cfg_.max_migrations < 0)
    throw TreeError("RebalanceState: max_migrations must be >= 0");
  if (cfg_.split_watermark < 0.0 || cfg_.merge_watermark < 0.0)
    throw TreeError("RebalanceState: lifecycle watermarks must be >= 0");
  if (cfg_.replicas < 0)
    throw TreeError("RebalanceState: replicas must be >= 0");
  if (cfg_.max_shards < 1 || cfg_.min_shards < 1)
    throw TreeError("RebalanceState: shard-count bounds must be >= 1");
  slots_.assign(16, kEmptySlot);
}

void RebalanceState::observe(const Request& r, const ShardMap& map) {
  if (r.src == r.dst) return;
  // Resolve both shards first: shard_of() rejects out-of-range ids, and a
  // rejected request must leave the window untouched.
  const bool cross = map.shard_of(r.src) != map.shard_of(r.dst);
  const std::uint64_t key = pair_key(r.src, r.dst);
  // Keep room for one more entry at load <= 1/2.
  if (2 * (entries_.size() + 1) > slots_.size()) rehash(2 * slots_.size());
  const std::size_t slot = find_slot(key);
  if (slots_[slot] == kEmptySlot) {
    slots_[slot] = static_cast<std::uint32_t>(entries_.size());
    const auto [u, v] = std::minmax(r.src, r.dst);
    entries_.push_back({u, v, 0.0});
    touched_.push_back(0);
  }
  const std::size_t i = slots_[slot];
  entries_[i].weight += 1.0;
  touched_[i] = 1;
  requests_ += 1.0;
  if (cross) cross_ += 1.0;
}

std::size_t RebalanceState::find_slot(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;  // power of two
  for (std::size_t s = splitmix64_mix(key) & mask;; s = (s + 1) & mask) {
    const std::uint32_t i = slots_[s];
    if (i == kEmptySlot || pair_key(entries_[i].u, entries_[i].v) == key)
      return s;
  }
}

void RebalanceState::rehash(std::size_t slots) {
  slots_.assign(slots, kEmptySlot);
  for (std::size_t i = 0; i < entries_.size(); ++i)
    slots_[find_slot(pair_key(entries_[i].u, entries_[i].v))] =
        static_cast<std::uint32_t>(i);
}

double RebalanceState::pair_weight(NodeId u, NodeId v) const {
  const std::uint32_t i = slots_[find_slot(pair_key(u, v))];
  return i == kEmptySlot ? 0.0 : entries_[i].weight;
}

RebalanceState::Entries RebalanceState::ordered_entries() {
  fresh_.clear();
  // Hot pairs first; full (u, v) tie-break so the order — and with it every
  // greedy decision — is a function of the window's contents alone.
  const auto before = [](const PairEntry& a, const PairEntry& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  };
  // Compact the untouched entries to the front, in order, and set aside
  // the touched ones plus any untouched entry the decay's rounding tied
  // with the one kept before it (their (u, v) tie-break no longer holds).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (touched_[i] ||
        (kept > 0 && !before(entries_[kept - 1], entries_[i]))) {
      fresh_.push_back(entries_[i]);
      continue;
    }
    entries_[kept++] = entries_[i];
  }
  std::sort(fresh_.begin(), fresh_.end(), before);
  // Merge from the back; the tail past `kept` has room for every entry set
  // aside. Pairs are distinct, so the order has no ties.
  std::size_t i = kept, j = fresh_.size(), out = entries_.size();
  while (j > 0)
    entries_[--out] = i > 0 && before(fresh_[j - 1], entries_[i - 1])
                          ? entries_[--i]
                          : fresh_[--j];
  return entries_;
}

void RebalanceState::decay() {
  requests_ *= cfg_.window_decay;
  cross_ *= cfg_.window_decay;
  // One factor for every weight keeps the window in planner order (up to
  // rounding ties, which the next ordered_entries() sorts with the touched
  // entries).
  for (PairEntry& e : entries_) e.weight *= cfg_.window_decay;
  // Prune aged-out pairs: only weights that have decayed to noise
  // (kWindowFloorWeight) are dropped unconditionally. The cut must NOT
  // start at 1.0 — that would evict every pair not re-observed in the
  // current epoch after a single decay, collapsing the "exponentially aged
  // sliding window" to depth 1 for cold pairs even with the table nearly
  // empty. Only when the table exceeds its capacity does the cut rise
  // (deterministic doubling; value predicate) until it fits, evicting
  // lightest-first as documented. Weights descend, so each cut is a tail.
  double cut = kWindowFloorWeight;
  auto end = entries_.end();
  while (true) {
    end = std::partition_point(
        entries_.begin(), end,
        [cut](const PairEntry& e) { return e.weight >= cut; });
    if (std::cmp_less_equal(end - entries_.begin(), cfg_.window_capacity))
      break;
    cut *= 2.0;
  }
  entries_.erase(end, entries_.end());
  touched_.assign(entries_.size(), 0);
  rehash(slots_.size());
}

RebalancePlan RebalanceState::epoch(const ShardMap& map,
                                    const RebalanceCostHints& hints) {
  RebalancePlan plan;
  plan.cross_fraction =
      requests_ == 0.0 ? 0.0 : cross_ / requests_;

  const Entries entries = ordered_entries();

  // Window load per shard (each endpoint touch counts its weight), shared
  // by the plan's load_imbalance and the watermark and lifecycle planners.
  std::vector<double> touches(static_cast<std::size_t>(map.shards()), 0.0);
  for (const PairEntry& e : entries) {
    touches[static_cast<std::size_t>(map.shard_of(e.u))] += e.weight;
    const int sv = map.shard_of(e.v);
    if (sv != map.shard_of(e.u))
      touches[static_cast<std::size_t>(sv)] += e.weight;
  }
  {
    double max = 0.0, sum = 0.0;
    int active = 0;
    for (int s = 0; s < map.shards(); ++s) {
      if (map.shard_size(s) == 0) continue;
      ++active;
      max = std::max(max, touches[static_cast<std::size_t>(s)]);
      sum += touches[static_cast<std::size_t>(s)];
    }
    plan.load_imbalance =
        (active == 0 || sum == 0.0) ? 1.0 : max / (sum / active);
  }

  // Drift score: how much of the current hot-pair set is new. Computed
  // every epoch (not only under kDrift) so the plan always reports it and
  // the history stays warm across trigger changes.
  {
    std::vector<std::uint64_t> top;
    const std::size_t k = std::min(cfg_.drift_top_k, entries.size());
    top.reserve(k);
    for (std::size_t i = 0; i < k; ++i)
      top.push_back(pair_key(entries[i].u, entries[i].v));
    std::sort(top.begin(), top.end());
    if (prev_top_.empty() || top.empty()) {
      // An empty history is not drift: the first window only seeds the
      // detector. The initial partition is configuration — rebalancing
      // exists to chase *change*, and a workload that never changes should
      // serve exactly like PR 3's static engine.
      plan.drift = 0.0;
    } else {
      std::size_t fresh = 0;
      for (std::uint64_t key : top)
        if (!std::binary_search(prev_top_.begin(), prev_top_.end(), key))
          ++fresh;
      plan.drift = static_cast<double>(fresh) / static_cast<double>(top.size());
    }
    if (!top.empty()) prev_top_ = std::move(top);
  }

  switch (cfg_.trigger) {
    case RebalanceTrigger::kEveryEpoch:
      plan.triggered = true;
      break;
    case RebalanceTrigger::kDrift:
      plan.triggered = plan.drift > cfg_.trigger_drift;
      break;
  }

  if (plan.triggered && map.shards() > 1) {
    RebalanceCostHints resolved = hints;
    if (cfg_.cross_penalty > 0.0) resolved.cross_penalty = cfg_.cross_penalty;
    if (cfg_.policy == RebalancePolicy::kHotPair)
      plan_hot_pairs(map, resolved, entries, plan);
    else if (cfg_.policy == RebalancePolicy::kWatermark)
      plan_watermark(map, resolved, entries, touches, plan);
  }

  // Lifecycle decisions fire on every epoch regardless of the migration
  // trigger: a fleet-shape change answers sustained load skew, which the
  // drift detector deliberately ignores.
  if (cfg_.lifecycle_enabled()) plan_lifecycle(map, entries, touches, plan);

  decay();
  return plan;
}

void RebalanceState::plan_lifecycle(const ShardMap& map, Entries entries,
                                    const std::vector<double>& touches,
                                    RebalancePlan& plan) const {
  // Per-shard window load over node-owning shards, plus the two coldest
  // and the hottest — all tie-broken toward the smaller id so the plan is
  // a pure function of the window.
  double max = 0.0, sum = 0.0;
  int active = 0, hottest = -1;
  int cold1 = -1, cold2 = -1;  // coldest and second-coldest
  for (int s = 0; s < map.shards(); ++s) {
    if (map.shard_size(s) == 0) continue;
    ++active;
    const double w = touches[static_cast<std::size_t>(s)];
    sum += w;
    if (hottest < 0 || w > max) {
      max = w;
      hottest = s;
    }
    if (cold1 < 0 || w < touches[static_cast<std::size_t>(cold1)]) {
      cold2 = cold1;
      cold1 = s;
    } else if (cold2 < 0 || w < touches[static_cast<std::size_t>(cold2)]) {
      cold2 = s;
    }
  }
  if (active < 1 || sum == 0.0) return;  // empty window: nothing to react to
  const double mean = sum / active;

  // Replica set: the cfg_.replicas shards with the heaviest *intra*-shard
  // window weight (both endpoints inside), weight > 0, ties to the
  // smaller id. Ids refer to the pre-lifecycle map; the runner reconciles
  // replicas before applying any split/merge of the same barrier.
  if (cfg_.replicas > 0) {
    std::vector<double> intra_w(static_cast<std::size_t>(map.shards()), 0.0);
    for (const PairEntry& e : entries) {
      const int su = map.shard_of(e.u);
      if (su == map.shard_of(e.v)) intra_w[static_cast<std::size_t>(su)] += e.weight;
    }
    std::vector<int> order;
    for (int s = 0; s < map.shards(); ++s)
      if (intra_w[static_cast<std::size_t>(s)] > 0.0) order.push_back(s);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double wa = intra_w[static_cast<std::size_t>(a)];
      const double wb = intra_w[static_cast<std::size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    order.resize(std::min(order.size(),
                          static_cast<std::size_t>(cfg_.replicas)));
    std::sort(order.begin(), order.end());
    plan.replicate = std::move(order);
  }

  // Split the hottest shard when it carries more than split_watermark x
  // the mean load. >= 4 nodes so both halves can later merge or shed
  // nodes without tripping the never-drain guards.
  if (cfg_.split_watermark > 0.0 && map.shards() < cfg_.max_shards &&
      hottest >= 0 && max > cfg_.split_watermark * mean &&
      map.shard_size(hottest) >= 4) {
    plan.split_shard = hottest;
    return;  // never split and merge at the same barrier
  }

  // Merge the two coldest shards when their combined load is below
  // merge_watermark x the mean and the combined shard fits the capacity
  // guard of the shrunken fleet.
  if (cfg_.merge_watermark > 0.0 && active > 1 &&
      map.shards() > std::max(cfg_.min_shards, 1) && cold1 >= 0 &&
      cold2 >= 0) {
    const double combined = touches[static_cast<std::size_t>(cold1)] +
                            touches[static_cast<std::size_t>(cold2)];
    const int merged_nodes = map.shard_size(cold1) + map.shard_size(cold2);
    const double post_even = static_cast<double>(map.n()) /
                             static_cast<double>(map.shards() - 1);
    if (combined < cfg_.merge_watermark * mean &&
        static_cast<double>(merged_nodes) <=
            cfg_.capacity_factor * post_even) {
      plan.merge_into = std::min(cold1, cold2);
      plan.merge_from = std::max(cold1, cold2);
    }
  }
}

namespace {

/// Per-node window adjacency in CSR form (n + 2 offsets, two partner
/// records per pair), built once per planning pass from the ordered entry
/// list. Rows list partners in entry order, so every sum over a row adds
/// the same terms in the same order on every run.
struct Adjacency {
  struct Partner {
    NodeId node;
    double weight;
  };
  std::vector<std::uint32_t> start;  ///< row of id x: [start[x], start[x+1])
  std::vector<Partner> partners;

  template <typename Entries>
  Adjacency(int n, const Entries& entries)
      : start(static_cast<std::size_t>(n) + 2, 0),
        partners(2 * entries.size()) {
    for (const auto& e : entries) {
      ++start[static_cast<std::size_t>(e.u)];
      ++start[static_cast<std::size_t>(e.v)];
    }
    // start[x] becomes the end of row x; filling back to front from the
    // last entry leaves it at the row's beginning.
    for (std::size_t x = 1; x < start.size(); ++x) start[x] += start[x - 1];
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      partners[--start[static_cast<std::size_t>(it->u)]] = {it->v, it->weight};
      partners[--start[static_cast<std::size_t>(it->v)]] = {it->u, it->weight};
    }
  }

  std::span<const Partner> row(NodeId x) const {
    const std::size_t b = start[static_cast<std::size_t>(x)];
    return {partners.data() + b, start[static_cast<std::size_t>(x) + 1] - b};
  }

  /// Total window weight of node `x` (the sum over its pairs).
  double load(NodeId x) const {
    double sum = 0.0;
    for (const Partner& p : row(x)) sum += p.weight;
    return sum;
  }
};

/// Window weight node `x` sends to shard `t` under assignment `shard_of`.
double affinity(const Adjacency& adj, const std::vector<int>& shard_of,
                NodeId x, int t) {
  double sum = 0.0;
  for (const auto& [partner, w] : adj.row(x))
    if (shard_of[static_cast<std::size_t>(partner)] == t) sum += w;
  return sum;
}

/// Working copies a greedy planning pass mutates as it accepts moves, so
/// later decisions price earlier ones in. Shared by both policies.
struct PlanScratch {
  std::vector<int> shard_of;
  std::vector<int> owned;
  std::vector<bool> moved;

  explicit PlanScratch(const ShardMap& map)
      : shard_of(static_cast<std::size_t>(map.n()) + 1),
        owned(static_cast<std::size_t>(map.shards())),
        moved(static_cast<std::size_t>(map.n()) + 1, false) {
    for (NodeId id = 1; id <= map.n(); ++id)
      shard_of[static_cast<std::size_t>(id)] = map.shard_of(id);
    for (int s = 0; s < map.shards(); ++s)
      owned[static_cast<std::size_t>(s)] = map.shard_size(s);
  }
};

}  // namespace

namespace {

/// Largest node count the capacity guard lets one shard reach.
int shard_capacity(const ShardMap& map, double factor) {
  const double even =
      static_cast<double>(map.n()) / static_cast<double>(map.shards());
  const int cap = static_cast<int>(factor * even);
  return std::max(cap, 2);
}

}  // namespace

void RebalanceState::plan_hot_pairs(const ShardMap& map,
                                    const RebalanceCostHints& hints,
                                    Entries entries,
                                    RebalancePlan& plan) const {
  const Adjacency adj(map.n(), entries);
  const int capacity = shard_capacity(map, cfg_.capacity_factor);

  PlanScratch sc(map);
  std::vector<int>& shard_of = sc.shard_of;
  std::vector<int>& owned = sc.owned;
  std::vector<bool>& moved = sc.moved;

  for (const PairEntry& e : entries) {
    if (static_cast<int>(plan.migrations.size()) >= cfg_.max_migrations) break;
    const int su = shard_of[static_cast<std::size_t>(e.u)];
    const int sv = shard_of[static_cast<std::size_t>(e.v)];
    if (su == sv) continue;

    // Candidate moves: u joins v's shard or v joins u's. Score each by the
    // projected per-window saving (affinity gained minus affinity lost,
    // priced at the cross penalty) net of the migration cost estimate; a
    // move must gain something to be accepted.
    double best_gain = 0.0;
    NodeId best_node = kNoNode;
    int best_target = -1;
    for (const auto& [node, target] : {std::pair{e.u, sv}, std::pair{e.v, su}}) {
      const int cur = shard_of[static_cast<std::size_t>(node)];
      if (moved[static_cast<std::size_t>(node)]) continue;
      if (owned[static_cast<std::size_t>(cur)] <= 1) continue;  // never drain
      if (owned[static_cast<std::size_t>(target)] >= capacity) continue;
      const double delta = affinity(adj, shard_of, node, target) -
                           affinity(adj, shard_of, node, cur);
      const double gain = delta * hints.cross_penalty - hints.migration_cost;
      if (gain > best_gain) {
        best_gain = gain;
        best_node = node;
        best_target = target;
      }
    }
    if (best_node == kNoNode) continue;

    plan.migrations.push_back({best_node, best_target});
    plan.est_gain += best_gain;
    moved[static_cast<std::size_t>(best_node)] = true;
    --owned[static_cast<std::size_t>(shard_of[static_cast<std::size_t>(best_node)])];
    ++owned[static_cast<std::size_t>(best_target)];
    shard_of[static_cast<std::size_t>(best_node)] = best_target;
  }
}

void RebalanceState::plan_watermark(const ShardMap& map,
                                    const RebalanceCostHints& hints,
                                    Entries entries,
                                    const std::vector<double>& touches,
                                    RebalancePlan& plan) const {
  const Adjacency adj(map.n(), entries);
  // The greedy loop evolves the same per-shard load epoch() already
  // measured (one endpoint touch per pair per shard).
  std::vector<double> load = touches;

  PlanScratch sc(map);
  std::vector<int>& shard_of = sc.shard_of;
  std::vector<int>& owned = sc.owned;
  std::vector<bool>& moved = sc.moved;

  while (static_cast<int>(plan.migrations.size()) < cfg_.max_migrations) {
    double max = 0.0, sum = 0.0;
    int active = 0, hottest = -1;
    for (int s = 0; s < map.shards(); ++s) {
      if (owned[static_cast<std::size_t>(s)] == 0) continue;
      ++active;
      sum += load[static_cast<std::size_t>(s)];
      if (hottest < 0 || load[static_cast<std::size_t>(s)] > max) {
        max = load[static_cast<std::size_t>(s)];
        hottest = s;
      }
    }
    if (active <= 1 || sum == 0.0) break;
    const double mean = sum / active;
    if (max <= cfg_.watermark * mean) break;
    if (owned[static_cast<std::size_t>(hottest)] <= 1) break;

    // Evict the node of the hottest shard least attached to it: smallest
    // (internal - external) window affinity; ties break toward the node
    // with less load, then the smaller id.
    NodeId evict = kNoNode;
    double evict_score = 0.0;
    double evict_load = 0.0;
    for (NodeId local = 1; local <= map.shard_size(hottest); ++local) {
      const NodeId node = map.global_of(hottest, local);
      if (moved[static_cast<std::size_t>(node)]) continue;
      if (shard_of[static_cast<std::size_t>(node)] != hottest) continue;
      // The node's window weight; its *shed-able* load is smaller — pairs
      // with a partner in the same shard keep touching the shard through
      // the partner after the node leaves.
      const double w = adj.load(node);
      if (w == 0.0) continue;  // moving silent nodes cannot shed load
      const double score =
          2.0 * affinity(adj, shard_of, node, hottest) - w;  // internal - external
      if (evict == kNoNode || score < evict_score ||
          (score == evict_score && w < evict_load)) {
        evict = node;
        evict_score = score;
        evict_load = w;
      }
    }
    if (evict == kNoNode) break;

    // Send it where it is most attached among the under-loaded shards;
    // with no attachment anywhere, fall back to the least-loaded one.
    int target = -1;
    double target_aff = 0.0;  // strictly positive affinity required
    int coldest = -1;
    const int capacity = shard_capacity(map, cfg_.capacity_factor);
    for (int s = 0; s < map.shards(); ++s) {
      if (s == hottest || owned[static_cast<std::size_t>(s)] == 0) continue;
      if (owned[static_cast<std::size_t>(s)] >= capacity) continue;
      if (load[static_cast<std::size_t>(s)] >= mean) continue;
      if (coldest < 0 ||
          load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(coldest)])
        coldest = s;
      const double aff = affinity(adj, shard_of, evict, s);
      if (aff > target_aff) {
        target_aff = aff;
        target = s;
      }
    }
    if (target < 0) {
      target = coldest;
      if (target < 0) break;
      target_aff = affinity(adj, shard_of, evict, target);
    }

    plan.migrations.push_back({evict, target});
    plan.est_gain += target_aff * hints.cross_penalty - hints.migration_cost;
    moved[static_cast<std::size_t>(evict)] = true;
    // A touch leaves the hot shard only for pairs whose partner is not
    // also there (intra pairs keep anchoring it through the partner), and
    // the target gains one touch for every pair not already ending there.
    load[static_cast<std::size_t>(hottest)] -=
        evict_load - affinity(adj, shard_of, evict, hottest);
    load[static_cast<std::size_t>(target)] += evict_load - target_aff;
    --owned[static_cast<std::size_t>(hottest)];
    ++owned[static_cast<std::size_t>(target)];
    shard_of[static_cast<std::size_t>(evict)] = target;
  }
}

}  // namespace san
