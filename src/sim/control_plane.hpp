// ControlPlane: what both sharded engines do at an epoch barrier and at a
// scripted fault, written once. The batch pipeline (sim/simulator.hpp)
// and the open-loop frontend (sim/serve_frontend.hpp) keep only their own
// serving machinery and decide *when* a barrier or a fault falls; the
// plane decides *what* happens there:
//
//   barrier   age the measured cross/intra split into the planner's
//             cross_penalty, plan an epoch, apply its migrations,
//             reconcile replicas, then split else merge
//   fault     pop the next scripted event (range-checked against the live
//             fleet), snapshot the fleet at resume points, and recover a
//             killed shard by replica promotion or by a snapshot restore
//             plus a replay of the ops it served since, in served order
//
// Every served op splays, so only the served order rebuilds the lost tree
// (the state-machine rule). The batch pipeline hands recover() the killed
// shard's queue from the sub-drain that just ran, already permuted into
// served order; the frontend hands it the log the shard's worker kept.
//
// Every counter it moves lands in the SimResult the engine passes in.
#pragma once

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/schedule.hpp"
#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "workload/rebalance.hpp"

namespace san {

/// Cross/intra split of served cost, feeding the measured migration cost
/// model: what did a cross-shard request cost here, against an intra-shard
/// one? Cross cost is both root ascents plus the top-level legs.
struct CostSplit {
  Cost cross_cost = 0;
  Cost intra_cost = 0;
  std::size_t cross_requests = 0;
  std::size_t intra_requests = 0;

  CostSplit& operator+=(const CostSplit& o) {
    cross_cost += o.cross_cost;
    intra_cost += o.intra_cost;
    cross_requests += o.cross_requests;
    intra_requests += o.intra_requests;
    return *this;
  }
};

/// One shard's drain totals plus the ascent-op share of them.
struct ShardDrain {
  SimResult sim;
  Cost ascent_cost = 0;  ///< routing + rotations of the ascent ops alone
};

/// Serves shard `s`'s op queue through ShardedNetwork::serve_local in the
/// scheduled order: FIFO serves it untouched, kLocality reorders within
/// windows of this queue alone. Intra ops of a replicated shard count as
/// replica reads. Only this call touches the shard and its replica, so
/// drains of different shards share nothing.
ShardDrain drain_shard(ShardedNetwork& net, int s, std::span<ShardOp> ops,
                       const ScheduleConfig& sched);

/// The Trace& adapters' final-map upgrade of post_intra_fraction: a
/// migrated, split or merged map needs the full-trace re-scan that a
/// single-pass stream cannot make.
void rescan_post_intra(SimResult& res, const Trace& trace,
                       const ShardMap& map);

/// What a barrier did to the fleet.
struct BarrierOutcome {
  bool changed = false;  ///< map or fleet changed shape
  int split_to = -1;     ///< id of the shard a split created, or -1
  int merged_from = -1;  ///< id a merge removed (ids above it shift down)
};

class ControlPlane {
 public:
  using Clock = std::chrono::steady_clock;

  /// `rebalance` and `faults` may be null. Validates the fault script.
  ControlPlane(ShardedNetwork& net, const RebalanceConfig* rebalance,
               const FaultPlan* faults, SimResult& res);

  /// Epoch barriers run: migrations need S > 1 to have anywhere to move
  /// nodes, lifecycle planning runs even on a single-shard fleet.
  bool adaptive() const { return adaptive_; }
  /// Requests between barriers (0 when not adaptive).
  std::size_t epoch_requests() const {
    return adaptive_ ? cfg_->epoch_requests : 0;
  }
  /// Feeds one request into the rebalance window. It reads only the map,
  /// which no drain changes, so it can run beside the drains.
  void observe(const Request& r) { state_.observe(r, net_.map()); }

  /// The epoch barrier. `served_so_far` is the run's cumulative split;
  /// the rebuild rounds run `width` wide (0 = all cores).
  BarrierOutcome barrier(const CostSplit& served_so_far, int width);

  /// The next scripted event, or null once every event has fired.
  const FaultEvent* next_fault() const {
    return next_ < events_.size() ? &events_[next_] : nullptr;
  }
  /// Pops the next event. Throws TreeError when its shard is not in the
  /// live fleet. Counts worker kills and queue-pressure events; a shard
  /// kill is counted by recover().
  FaultEvent take_fault();

  /// A shard kill is still to fire. Only then do resume points matter:
  /// snapshot_all() snapshots and the frontend's workers log what they
  /// serve.
  bool kill_pending() const { return next_ < kills_end_; }
  /// Snapshots every shard at a resume point; a no-op once no shard kill
  /// is pending.
  void snapshot_all();
  /// Recovers killed shard `s`: promotion when it is replicated, else the
  /// last snapshot plus a FIFO replay of `served`, the ops (in `s`'s local
  /// ids, ascents as {u, kNoNode}) that `s` served since that snapshot, in
  /// the order it served them. The crash is simulated, so the lost tree is
  /// still readable: the replay must rebuild it exactly, or this throws
  /// TreeError. Replay cost goes to the recovery counters, not the serve
  /// counters.
  void recover(int s, std::span<ShardOp> served);
  /// Books the wall time since `t0` as one recovery.
  void note_recovery(Clock::time_point t0);

 private:
  ShardedNetwork& net_;
  const RebalanceConfig* cfg_;
  SimResult& res_;
  bool adaptive_;
  RebalanceState state_;
  RebalanceCostHints base_hints_;
  CostSplit prev_;  ///< cumulative split at the previous barrier
  double cross_cost_ = 0.0, intra_cost_ = 0.0;  ///< aged measurements
  double cross_reqs_ = 0.0, intra_reqs_ = 0.0;
  std::vector<FaultEvent> events_;
  std::size_t next_ = 0;
  std::size_t kills_end_ = 0;  ///< one past the last shard kill's index
  std::vector<std::string> snaps_;  ///< [shard] tree image snapshot
};

}  // namespace san
