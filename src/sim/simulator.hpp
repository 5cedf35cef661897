// Trace simulator: replays a communication sequence over a network and
// accounts costs per the Section 2 model with the Section 5 experimental
// conventions (routing hop = 1, rotation = 1).
//
// run_trace is a template over the concrete network type, so the serve
// loop is monomorphic (no per-request indirect call); the AnyNetwork
// overload hoists the variant dispatch out of the loop with a single
// visit. run_trace_sharded is the batched pipeline for ShardedNetwork:
// it splits the trace into per-shard queues and drains the shards
// concurrently on the Executor, bit-identical at any width by
// construction (shards share no state, and per-shard op order alone
// determines cost); one thread, serial on the caller, is the determinism
// reference. Its epoch barriers and crash recoveries are the
// ControlPlane's (sim/control_plane.hpp), which the open-loop frontend
// shares.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/any_network.hpp"
#include "sim/fault.hpp"
#include "sim/schedule.hpp"
#include "workload/request.hpp"
#include "workload/streaming.hpp"

namespace san {

/// Requests pulled per chunk by the streaming replay loops. Bounds the
/// simulator's working set at O(chunk) regardless of m; chunking is
/// cost-invariant (per-shard op order and every additive counter are
/// unchanged by where the chunk boundaries fall).
inline constexpr std::size_t kStreamChunkRequests = 8192;

struct SimResult {
  Cost routing_cost = 0;    ///< sum of pre-adjustment path lengths
  Cost rotation_count = 0;  ///< k-splay / k-semi-splay / splay steps
  Cost edge_changes = 0;    ///< links added + removed (Section 2 adjustment)
  Cost cross_shard = 0;     ///< requests routed over the top-level tree
                            ///< (always 0 for unsharded networks)
  std::size_t requests = 0;

  // Rebalancing accounting (always 0 unless run_trace_sharded ran with an
  // active RebalanceConfig). Migration cost is kept out of the serve-path
  // counters above so static and adaptive runs stay comparable; use
  // grand_total_cost() for the honest adaptive total.
  Cost rebalance_epochs = 0;    ///< epochs whose trigger fired
  Cost migrations = 0;          ///< nodes moved across shards
  Cost migration_cost = 0;      ///< extraction splays + rebuild relinks
  /// Intra-shard fraction of the whole trace under the *final* map (set by
  /// run_trace_sharded in both static and adaptive modes).
  double post_intra_fraction = 0.0;

  // Shard lifecycle accounting (always 0 unless a sharded run planned
  // splits/merges/replicas through RebalanceConfig's lifecycle knobs).
  // Like migration_cost, lifecycle_cost stays out of the serve counters.
  Cost shard_splits = 0;    ///< shard splits applied at barriers
  Cost shard_merges = 0;    ///< shard merges applied at barriers
  Cost lifecycle_cost = 0;  ///< relink + top-tree rewire edges of those
  Cost replica_reads = 0;   ///< intra-shard ops answered from a replica
  int final_shards = 0;     ///< live shard count when the run ended (0 for
                            ///< unsharded networks)

  // Fault-injection accounting (always 0 without a FaultPlan). Recovery
  // replay cost is kept out of the serve counters so a faulted run's
  // golden serve costs bit-match the unfaulted run's (FIFO schedule).
  Cost faults_injected = 0;      ///< scripted shard kills that fired
  Cost replica_promotions = 0;   ///< recoveries served by replica failover
  Cost recovery_replayed = 0;    ///< served ops replayed into restored shards
  Cost recovery_cost = 0;        ///< routing + rotations of that replay
  double recovery_total_ms = 0.0;  ///< wall-clock spent recovering, summed
  double recovery_max_ms = 0.0;    ///< slowest single recovery (SLO check)
  /// Chaos events that are not shard kills (sim/fault.hpp): worker kills
  /// (frontend: thread retired + respawned at a quiesce barrier; data
  /// intact) and queue-pressure windows (frontend: inbox bound collapsed
  /// until the next barrier). The batch pipeline has neither persistent
  /// workers nor queues, so there these only count the fired events.
  Cost worker_kills = 0;
  Cost queue_pressure_events = 0;

  // Overload-control accounting (open-loop frontend only; always 0 for
  // closed-loop replay). A shed request never touched a tree past the
  // point it was dropped, so unshed runs stay bit-identical to the
  // pre-overload-control goldens. shed_requests is the sum of the three
  // shed classes plus cross_shed; requests == served + shed_requests.
  Cost shed_requests = 0;     ///< total requests dropped instead of served
  Cost shed_queue_full = 0;   ///< kShed: dropped at a full main queue
  Cost shed_throttled = 0;    ///< token-bucket admission drops
  Cost deadline_expired = 0;  ///< kDeadline: dead at admission or dequeue
  Cost cross_shed = 0;        ///< cross-shard legs dropped by the circuit
                              ///< breaker or handover-retry exhaustion
  /// Dispatcher pushes that found the target main queue full. Under
  /// kBlock the push then waited (the pre-existing backpressure, now
  /// visible instead of silent); under kShed it was dropped; under
  /// kDeadline it waited like kBlock.
  Cost queue_full_blocks = 0;
  Cost breaker_trips = 0;  ///< per-shard circuit-breaker open transitions

  /// Requests whose serve position differed from their arrival position
  /// under the locality schedule (sim/schedule.hpp; always 0 under FIFO).
  Cost reordered_requests = 0;

  /// Experimental-section total: unit routing + unit rotation cost.
  Cost total_cost() const { return routing_cost + rotation_count; }
  /// Serving total plus everything spent reshaping and recovering the
  /// fleet: migrations, splits/merges, and crash-recovery replay.
  Cost grand_total_cost() const {
    return total_cost() + migration_cost + lifecycle_cost + recovery_cost;
  }
  /// Section 2 model total: routing + links added/removed.
  Cost model_cost() const { return routing_cost + edge_changes; }
  double avg_request_cost() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(total_cost()) /
                     static_cast<double>(requests);
  }
  double avg_routing_cost() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(routing_cost) /
                     static_cast<double>(requests);
  }
};

namespace detail {

/// Resolves the tree a LocalityScheduler should key against for a given
/// network type: the underlying KAryTree where one exists, or the
/// BinarySplayNet itself (it satisfies the scheduler's scalar lca()/root()
/// fallback). A network with no single schedulable tree (ShardedNetwork —
/// use run_trace_sharded) fails kHasScheduleTree and gets a runtime error
/// instead.
template <typename Net>
constexpr bool kHasScheduleTree =
    requires(Net& n) { n.tree().root(); } ||
    requires(Net& n) {
      n.lca(NodeId{1}, NodeId{1});
      n.root();
    };

template <typename Net>
decltype(auto) schedule_tree(Net& net) {
  if constexpr (requires { net.tree().root(); })
    return (net.tree());
  else
    return (net);
}

}  // namespace detail

/// Replays a request stream over `net`, mutating it, pulling one chunk at
/// a time — O(kStreamChunkRequests) memory regardless of the stream
/// length. Monomorphic per network type: works on any object with a
/// `ServeResult serve(NodeId, NodeId)` member (all concrete networks and
/// ShardedNetwork alike).
///
/// `sched` selects the intra-chunk serve order (sim/schedule.hpp). The
/// default FIFO path is the pre-scheduler loop, untouched; kLocality
/// reorders within windows of each chunk and throws for network types with
/// no schedulable tree (ShardedNetwork — use run_trace_sharded).
template <typename Net>
SimResult run_trace_stream(Net& net, RequestStream& stream,
                           const ScheduleConfig& sched = {}) {
  sched.validate();
  SimResult res;
  Cost cross_before = 0;
  if constexpr (requires { net.cross_shard_served(); })
    cross_before = net.cross_shard_served();
  std::vector<Request> chunk(kStreamChunkRequests);
  if (!sched.reorders()) {
    while (true) {
      const std::size_t got = stream.fill(chunk);
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) {
        const ServeResult s = net.serve(chunk[i].src, chunk[i].dst);
        res.routing_cost += s.routing_cost;
        res.rotation_count += s.rotations;
        res.edge_changes += s.edge_changes;
      }
      res.requests += got;
    }
  } else if constexpr (detail::kHasScheduleTree<Net>) {
    LocalityScheduler scheduler(sched);
    const auto resolve = [](const Request& r) {
      return ScheduleEndpoints{r.src, r.dst};
    };
    const auto serve_one = [&](const Request& r) {
      const ServeResult s = net.serve(r.src, r.dst);
      res.routing_cost += s.routing_cost;
      res.rotation_count += s.rotations;
      res.edge_changes += s.edge_changes;
    };
    while (true) {
      const std::size_t got = stream.fill(chunk);
      if (got == 0) break;
      scheduler.run(detail::schedule_tree(net),
                    std::span<Request>(chunk.data(), got), resolve, serve_one);
      res.requests += got;
    }
    res.reordered_requests = scheduler.reordered();
  } else {
    throw TreeError(
        "locality schedule is not supported for this network type "
        "(no schedulable tree; sharded runs go through run_trace_sharded)");
  }
  if constexpr (requires { net.cross_shard_served(); })
    res.cross_shard = net.cross_shard_served() - cross_before;
  return res;
}

/// Materialized adapter: identical serve order, hence identical costs —
/// run_trace(net, trace) is run_trace_stream over a TraceStream.
template <typename Net>
SimResult run_trace(Net& net, const Trace& trace,
                    const ScheduleConfig& sched = {}) {
  TraceStream stream(trace);
  return run_trace_stream(net, stream, sched);
}

/// Single visit, then the monomorphic loop above on the held alternative.
SimResult run_trace(AnyNetwork& net, const Trace& trace,
                    const ScheduleConfig& sched = {});
SimResult run_trace_stream(AnyNetwork& net, RequestStream& stream,
                           const ScheduleConfig& sched = {});

/// Static-tree shortcut (used by benches to cost a fixed topology against
/// a long trace): FIFO routing over `tree`. A locality-scheduled static
/// replay goes through run_trace over a StaticTreeNetwork.
SimResult run_trace_static(const KAryTree& tree, const Trace& trace);

/// How run_trace_sharded drains the per-shard queues.
struct ShardedRunOptions {
  /// Executor width for the drain and the barrier's rebuild rounds
  /// (0 = auto). 1 runs both serially on the caller: the determinism
  /// reference every other width bit-matches.
  int threads = 0;
  /// Non-null + enabled() turns on rebalance epochs: the trace is served
  /// in epoch_requests-sized chunks, each observed into the window during
  /// its own drain, and every chunk but the last ends in the control
  /// plane's barrier (plan, migrate, reconcile replicas, split or merge).
  /// Null or disabled reproduces the static pipeline bit for bit.
  const RebalanceConfig* rebalance = nullptr;
  /// Intra-shard serve order within each drained queue (sim/schedule.hpp).
  /// Reordering is per-shard and per-chunk, so costs stay bit-identical at
  /// any width: shards share nothing and each shard's scheduled order is
  /// deterministic.
  ScheduleConfig schedule{};
  /// Non-null + enabled() injects scripted faults (sim/fault.hpp): the
  /// drain splits its chunks at the event indices, snapshots every shard
  /// (a checksummed binary tree image) at each resume point while a shard
  /// kill is pending, and recovers a killed shard by replica promotion or
  /// snapshot restore + a replay of the queue it served since, in the
  /// order it served it. Every event's shard is checked
  /// against the live fleet. Deterministic at any width; under the
  /// FIFO schedule the serve counters bit-match the unfaulted run
  /// (locality windows legitimately re-seat at the crash boundary).
  const FaultPlan* faults = nullptr;
};

/// Batched sharded pipeline: partitions `trace` into per-shard op queues
/// (arrival order preserved) and drains every shard independently on the
/// Executor, `opt.threads` wide. Costs are bit-identical across thread
/// counts, and identical to serving the same trace request-by-request
/// through net.serve(). With rebalancing enabled the epoch schedule, every
/// planned batch, and hence every cost are still bit-identical across
/// thread counts: chunks drain deterministically, the window observes each
/// chunk as one more task of its drain round (it reads only the map),
/// planning runs at the barrier on the caller, and the barrier's per-shard
/// rebuilds give the same trees at any width.
SimResult run_trace_sharded(ShardedNetwork& net, const Trace& trace,
                            const ShardedRunOptions& opt = {});

/// Streaming sharded pipeline: pulls epoch-aligned chunks from `stream`
/// and feeds the same drain/barrier machinery, so costs are bit-identical
/// to run_trace_sharded over the materialized trace. Memory is O(chunk +
/// shard queues), independent of the stream length. One documented
/// divergence: post_intra_fraction is computed from dispatch-time drain
/// counters (the fraction of requests that were intra-shard when served) —
/// a single-pass stream cannot be re-scanned under the final map, so the
/// Trace& overload above performs that re-scan in its adapter when
/// migrations occurred.
SimResult run_trace_sharded_stream(ShardedNetwork& net, RequestStream& stream,
                                   const ShardedRunOptions& opt = {});

}  // namespace san
