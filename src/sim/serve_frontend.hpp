// ServeFrontend: the live open-loop serving engine — a dynamic fleet of
// worker threads over per-shard bounded MPSC inboxes, fed by an
// arrival-timed dispatcher, with cross-shard requests handed over between
// workers through per-shard mailboxes (the RPC/handover split of
// disaggregated stores like DiStore, replacing the batch pipeline's epoch
// barrier).
//
// Topology of one run:
//
//   caller thread (dispatcher)            worker w serves shard w
//   ─────────────────────────             ──────────────────────────────
//   wait until arrival[i]                 drain inbox (mailbox first,
//   admission control: token              then main queue, at most
//     bucket, deadline, queue             kAdmissionBatch = 64 per wakeup)
//     policy (block/shed)                 intra: serve_local(w, u, v)
//   push r_i to the inbox of  ──push──►   cross 1st leg: ascend u,
//     its source's shard                    mailbox-push to dst worker
//   observe into rebalancer                 (bounded retry + breaker)
//   every epoch: quiesce, then            cross 2nd leg: ascend v
//     the control plane's barrier;          + top-tree legs, complete
//     reshape the worker fleet
//
// Dynamic worker lifecycle: the whole shard lifecycle runs mid-flight
// under live traffic, at the quiesce barrier (completed == dispatched).
// An item completes only when it is fully served or shed, so there no
// inbox or mailbox holds anything and the fleet can change shape safely.
// The barrier itself — plan, migrations, replicas, split/merge — and
// crash recovery are the batch pipeline's own (sim/control_plane.hpp);
// the frontend only reshapes its fleet to match: a split's new shard gets
// a fresh worker, a merge retires the last worker (shard ids above the
// vacated one shift down, and worker w keeps serving shard w). Fleet
// changes are published to workers through the inbox mutexes (every item
// a worker pops was pushed after the change), so a worker reads its
// shard's tree once per popped batch.
//
// Cost accounting is identical to the batched pipeline (and hence to
// per-request ShardedNetwork::serve): intra requests are exact Section 2
// accounting, a cross-shard request pays both root ascents plus the
// static top-tree route. At S = 1 with FIFO admission the single inbox
// preserves trace order, so the total cost bit-matches closed-loop batch
// replay for any arrival process (locked by tests/test_frontend.cpp). At
// S > 1 the per-shard interleaving of direct and handed-over ops depends
// on real-time scheduling, so costs are statistically but not bit
// reproducible — the price of measuring actual latency.
//
// Overload control: the admission plane is explicit instead of an
// implicit infinite queue. The full-queue policy picks what happens when
// a shard's main inbox is full — kBlock (backpressure the dispatcher;
// the pre-overload-control behavior, still the default and still
// lossless) or kShed (drop the request, count it, record its age in the
// shed histogram). kDeadline gives every request an absolute deadline
// (arrival + deadline_ms): dead requests are shed at admission and again
// at dequeue — a request that expired while queued is dropped before it
// can touch a tree, so deadline-expired requests never mutate state. An
// optional token bucket (admit_rate, 64 tokens deep, refilled from the
// *intended* arrival clock, so its admit/shed pattern is a deterministic
// function of the schedule) throttles admission upstream of the queues.
// Every drop lands in SimResult's shed counters and the shed-age
// histogram; a run with no drops is bit-identical to the pre-overload
// engine.
//
// Cross-shard resilience (kShed/kDeadline only; kBlock keeps the
// lossless unbounded-mailbox semantics): handover mailboxes are bounded,
// a full push is retried a bounded number of times with deterministic
// seeded backoff, and each shard has a circuit breaker — tripped by
// retry exhaustion (half-opens on a probe cadence) or forced open by the
// dispatcher while the shard is mid-recovery — that sheds cross-shard
// legs instead of stalling the sender behind a struggling shard.
//
// Latency: each request carries its intended arrival timestamp; sojourn
// (queue wait + service, including both legs and every mailbox hop of a
// cross-shard request) is recorded into per-worker LatencyHistograms and
// merged after the run — the mergeable-summary path to global p50/p99/p999.
// Shed requests are recorded in the separate shed histogram (age at drop)
// and never in sojourn: served latency stays honest under degradation.
#pragma once

#include <cstdint>
#include <span>

#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "stats/latency_histogram.hpp"
#include "workload/arrival.hpp"

namespace san {

/// What the dispatcher does when a shard's main inbox is full — and, for
/// kDeadline, what a request's deadline means. See the file comment.
enum class QueuePolicy : std::uint8_t {
  kBlock = 0,  ///< wait for space: lossless backpressure (the default; the
               ///< pre-overload-control behavior bit for bit, with the
               ///< wait now counted in SimResult::queue_full_blocks)
  kShed = 1,   ///< drop the request at a full queue, count + histogram it
  kDeadline = 2,  ///< block at a full queue, but shed requests whose
                  ///< absolute deadline (arrival + deadline_ms) has passed
                  ///< — at admission and again at dequeue
};

const char* queue_policy_name(QueuePolicy policy);

struct FrontendOptions {
  /// Bound of each shard's main request queue. What happens when it fills
  /// is queue_policy's call; under kBlock the dispatcher blocks while the
  /// target queue is full (arrival timestamps keep counting, so the
  /// backpressure is charged to latency, not hidden).
  std::size_t queue_capacity = 1024;
  /// Full-queue / deadline semantics (see QueuePolicy). kBlock is
  /// lossless; kShed and kDeadline are the degradation modes that also
  /// bound the handover mailboxes and arm the circuit breakers.
  QueuePolicy queue_policy = QueuePolicy::kBlock;
  /// kDeadline: per-request budget in milliseconds from intended arrival.
  /// Must be > 0 under kDeadline and 0 otherwise (validated).
  double deadline_ms = 0.0;
  /// > 0 arms the token-bucket admission throttle at this many requests/s.
  /// The bucket refills from the intended-arrival clock, so which requests
  /// it sheds is a deterministic function of the arrival schedule (under a
  /// saturation schedule the clock never advances: only the initial burst
  /// of 64 is admitted). Works under every queue policy.
  double admit_rate = 0.0;
  /// Handover mailbox bound under kShed/kDeadline; 0 picks the default
  /// (4 x queue_capacity). Under kBlock mailboxes stay unbounded: handover
  /// traffic is already bounded by the main queues, and a bounded
  /// worker-to-worker push could deadlock a cycle of full shards — the
  /// degradation modes break that cycle by shedding after bounded retries
  /// instead.
  std::size_t mailbox_capacity = 0;
  /// Bounded retries of a full handover push before the leg is shed
  /// (kShed/kDeadline only), with deterministic per-worker backoff.
  int handover_retries = 3;
  /// Consecutive handover-retry exhaustions against one shard that trip
  /// its circuit breaker (which then sheds cross legs outright and
  /// half-opens on a probe cadence). Must be >= 1.
  int breaker_threshold = 8;
  /// Non-null + enabled() turns on online rebalancing epochs (see file
  /// comment); lifecycle knobs (split/merge watermarks, planned replicas)
  /// are honored mid-flight: splits spawn workers, merges retire them,
  /// replicas are reconciled — all at quiesce barriers, exactly like the
  /// batch pipeline's drain barriers. Statically replicated shards
  /// (ShardedNetwork::add_replica before the run) work too — workers
  /// mirror into them and serve intra-shard requests from them.
  const RebalanceConfig* rebalance = nullptr;
  /// Non-null + enabled() injects scripted faults (sim/fault.hpp): each
  /// event fires once at_request requests were offered, admitted or shed
  /// (an event at the stream's length fires after the last request).
  /// kShardKill quiesces the pipeline, then recovers the shard — replica
  /// promotion when one exists, else a checksummed snapshot restore plus
  /// a replay of the ops the shard's worker served since the snapshot, in
  /// the order it served them (each worker logs them while a kill is
  /// pending). The rebuild is bit-identical to the lost state at every S.
  /// Without rebalancing, a pending kill also quiesces and re-snapshots
  /// every kStreamChunkRequests admitted requests, where the batch
  /// pipeline starts a chunk, so a replay spans at most one chunk.
  /// kWorkerKill retires and respawns the shard's worker thread (data
  /// intact); kQueuePressure collapses the shard's inbox bound until the
  /// next quiesce (a barrier or such a resume point). Recovery wall time
  /// lands in SimResult::recovery_total_ms/_max_ms and every pause is
  /// charged to arrivals like any other stall.
  const FaultPlan* faults = nullptr;
  /// Serve order within each admitted batch (sim/schedule.hpp). FIFO keeps
  /// the inbox order (and hence the S = 1 bit-match with batch replay);
  /// kLocality reorders each batch by LCA cluster against the worker's own
  /// shard tree before serving — fleet changes only land at quiesce
  /// barriers, so the map is stable for the whole batch. Validated at
  /// construction.
  ScheduleConfig schedule{};
};

struct FrontendResult {
  /// Serve-path totals in the batch pipeline's conventions. cross_shard
  /// counts requests that were cross-shard under the map at dispatch time;
  /// sim.requests counts every request the schedule offered (admitted or
  /// shed), so sojourn.count() + sim.shed_requests == sim.requests.
  SimResult sim;
  /// Queue wait + service time per served request, nanoseconds.
  LatencyHistogram sojourn;
  /// Arrival-to-first-admission wait per served request, nanoseconds.
  LatencyHistogram queue_wait;
  /// Age (now - intended arrival) at the moment a request was dropped,
  /// nanoseconds — the "how stale was what we refused" histogram. Empty
  /// when nothing was shed.
  LatencyHistogram shed;
  double elapsed_seconds = 0.0;  ///< first dispatch to last completion
  double offered_rate = 0.0;     ///< requests/s of the arrival schedule
                                 ///< (0 for saturation)
  double achieved_rate = 0.0;    ///< served requests / elapsed
  std::size_t handovers = 0;     ///< first-leg mailbox handovers performed
  std::size_t forwards = 0;      ///< always 0: the map changes only at
                                 ///< quiesce barriers, so no queued op
                                 ///< ever needs re-routing (kept for the
                                 ///< benchmark's sim.frontend.forwards)
  std::uint64_t route_epochs = 0;  ///< barriers that changed the map or
                                   ///< the fleet's shape (dispatcher count)
};

class ServeFrontend {
 public:
  /// The frontend serves through `net`, which must outlive it. Worker
  /// threads are spawned per run() (one per live shard, plus one per
  /// mid-run split) and joined before it returns.
  explicit ServeFrontend(ShardedNetwork& net, FrontendOptions opt = {});

  /// Serves `trace` open-loop: request i is dispatched at `arrivals[i]`
  /// nanoseconds after the run starts (gen_arrival_times produces the
  /// schedule; all-zero = saturation). Blocks until every request has
  /// completed or been shed. Throws TreeError when the sizes disagree or
  /// the options are invalid. Thin adapter over run_stream (TraceStream +
  /// FixedArrivalSchedule), plus a final-map post_intra_fraction re-scan
  /// when migrations or splits/merges occurred — the only thing a
  /// single-pass stream cannot reproduce.
  FrontendResult run(const Trace& trace,
                     std::span<const std::uint64_t> arrivals);

  /// Streaming engine: pulls requests from `stream` in O(chunk) memory and
  /// one arrival timestamp per request from `schedule`, so an m = 10^8
  /// open-loop run needs neither the materialized trace nor the 800 MB
  /// arrival vector. Identical serving machinery to run() — workers,
  /// mailboxes, quiesce barriers, epoch placement — the only divergence is
  /// post_intra_fraction, computed from dispatch-time counters.
  FrontendResult run_stream(RequestStream& stream, ArrivalSchedule& schedule);

 private:
  ShardedNetwork& net_;
  FrontendOptions opt_;
};

}  // namespace san
