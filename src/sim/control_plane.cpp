#include "sim/control_plane.hpp"

#include <algorithm>
#include <utility>

namespace san {

ShardDrain drain_shard(ShardedNetwork& net, int s, std::span<ShardOp> ops,
                       const ScheduleConfig& sched) {
  ShardDrain res;
  const bool replicated = net.has_replica(s);
  LocalityScheduler scheduler(sched);
  scheduler.run(
      net.shard(s).tree(), ops,
      [](const ShardOp& op) { return ScheduleEndpoints{op.src, op.dst}; },
      [&](const ShardOp& op) {
        const ServeResult r = net.serve_local(s, op.src, op.dst);
        res.sim.routing_cost += r.routing_cost;
        res.sim.rotation_count += r.rotations;
        res.sim.edge_changes += r.edge_changes;
        if (op.is_ascent())
          res.ascent_cost += r.routing_cost + static_cast<Cost>(r.rotations);
        else if (replicated)
          ++res.sim.replica_reads;
      });
  res.sim.reordered_requests = scheduler.reordered();
  return res;
}

void rescan_post_intra(SimResult& res, const Trace& trace,
                       const ShardMap& map) {
  if (res.migrations != 0 || res.shard_splits != 0 || res.shard_merges != 0)
    res.post_intra_fraction = compute_shard_stats(trace, map).intra_fraction();
}

ControlPlane::ControlPlane(ShardedNetwork& net,
                           const RebalanceConfig* rebalance,
                           const FaultPlan* faults, SimResult& res)
    : net_(net),
      cfg_(rebalance),
      res_(res),
      adaptive_(rebalance != nullptr &&
                ((rebalance->enabled() && net.num_shards() > 1) ||
                 rebalance->lifecycle_enabled())),
      state_(adaptive_ ? *rebalance : RebalanceConfig{}),
      base_hints_(net.cost_hints()) {
  if (faults != nullptr && faults->enabled()) {
    faults->validate();
    events_ = faults->kills;
    for (std::size_t i = 0; i < events_.size(); ++i)
      if (events_[i].kind == FaultKind::kShardKill) kills_end_ = i + 1;
  }
}

BarrierOutcome ControlPlane::barrier(const CostSplit& served_so_far,
                                     int width) {
  // Aged at the same rate as the pair window, so the cost measurement
  // tracks the topology the upcoming plan will serve instead of averaging
  // in long-gone cold-start epochs. The inputs are exact integer deltas
  // scaled by dyadic decay factors: bit-deterministic in every engine mode.
  const double decay = cfg_->window_decay;
  const auto age = [decay](double& aged, auto now, auto before) {
    aged = aged * decay + static_cast<double>(now - before);
  };
  age(cross_cost_, served_so_far.cross_cost, prev_.cross_cost);
  age(intra_cost_, served_so_far.intra_cost, prev_.intra_cost);
  age(cross_reqs_, served_so_far.cross_requests, prev_.cross_requests);
  age(intra_reqs_, served_so_far.intra_requests, prev_.intra_requests);
  prev_ = served_so_far;

  // Price colocation with the run's own measurements once both sides have
  // been observed. Splaying keeps hot nodes at their shard roots, so the
  // static structural estimate can badly overprice the ascents; a measured
  // penalty of ~0 parks the rebalancer instead of churning nodes.
  RebalanceCostHints hints = base_hints_;
  if (cross_reqs_ > 0.0 && intra_reqs_ > 0.0)
    hints.cross_penalty =
        std::max(0.0, cross_cost_ / cross_reqs_ - intra_cost_ / intra_reqs_);

  BarrierOutcome out;
  RebalancePlan plan = state_.epoch(net_.map(), hints);
  if (plan.triggered) {
    ++res_.rebalance_epochs;
    if (!plan.migrations.empty()) {
      const MigrationResult applied =
          net_.apply_migrations(std::move(plan.migrations), width);
      res_.migrations += applied.migrated;
      res_.migration_cost += applied.total_cost();
      out.changed = true;
    }
  }
  // Plan ids refer to the pre-lifecycle map, so replicas are reconciled
  // first; the split/merge (which renumbers shards and drops their
  // replicas) applies last.
  if (cfg_->replicas > 0) {
    for (int s = 0; s < net_.num_shards(); ++s) {
      const bool want = std::binary_search(plan.replicate.begin(),
                                           plan.replicate.end(), s);
      if (want && !net_.has_replica(s))
        net_.add_replica(s);
      else if (!want && net_.has_replica(s))
        net_.drop_replica(s);
    }
  }
  // The migrations may have reshaped the very shard the plan splits
  // (watermark migration and split watch the same hot shard), so the
  // split precondition is re-checked against the live map.
  if (plan.split_shard >= 0 && net_.map().shard_size(plan.split_shard) >= 2) {
    const LifecycleResult lr = net_.split_shard(plan.split_shard, width);
    ++res_.shard_splits;
    res_.lifecycle_cost += lr.total_cost();
    out.split_to = lr.shard;
    out.changed = true;
  } else if (plan.merge_from >= 0) {
    const LifecycleResult lr =
        net_.merge_shards(plan.merge_into, plan.merge_from);
    ++res_.shard_merges;
    res_.lifecycle_cost += lr.total_cost();
    out.merged_from = plan.merge_from;
    out.changed = true;
  }
  return out;
}

FaultEvent ControlPlane::take_fault() {
  const FaultEvent ev = events_[next_];
  const int live = net_.num_shards();
  if (ev.shard < 0 || ev.shard >= live)
    throw TreeError("FaultPlan: " + std::string(fault_kind_name(ev.kind)) +
                    " shard " + std::to_string(ev.shard) +
                    " out of range (live S=" + std::to_string(live) + ")");
  ++next_;
  if (ev.kind == FaultKind::kWorkerKill) ++res_.worker_kills;
  if (ev.kind == FaultKind::kQueuePressure) ++res_.queue_pressure_events;
  return ev;
}

void ControlPlane::snapshot_all() {
  if (!kill_pending()) return;
  const int S = net_.num_shards();
  snaps_.resize(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s)
    snaps_[static_cast<std::size_t>(s)] = net_.snapshot_shard(s);
}

void ControlPlane::recover(int s, std::span<ShardOp> served) {
  const Clock::time_point t0 = Clock::now();
  ++res_.faults_injected;
  if (net_.has_replica(s)) {
    // Failover: the lockstep replica holds the exact pre-crash state.
    net_.promote_replica(s);
    ++res_.replica_promotions;
  } else {
    // Same initial tree, same ops in the same order: the replay reaches
    // the state the shard held when it died, which the simulated crash
    // left readable to check against.
    const std::string lost = net_.snapshot_shard(s);
    net_.restore_shard(s, snaps_[static_cast<std::size_t>(s)]);
    const ShardDrain replay = drain_shard(net_, s, served, ScheduleConfig{});
    res_.recovery_replayed += static_cast<Cost>(served.size());
    res_.recovery_cost += replay.sim.total_cost();
    if (net_.snapshot_shard(s) != lost)
      throw TreeError("ControlPlane::recover: shard " + std::to_string(s) +
                      " replayed to a different tree");
  }
  note_recovery(t0);
}

void ControlPlane::note_recovery(Clock::time_point t0) {
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  res_.recovery_total_ms += ms;
  res_.recovery_max_ms = std::max(res_.recovery_max_ms, ms);
}

}  // namespace san
