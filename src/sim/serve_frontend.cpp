#include "sim/serve_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "sim/control_plane.hpp"

namespace san {
namespace {

using Clock = std::chrono::steady_clock;

/// Circuit-breaker states, one per shard. kRecovery is dispatcher-owned
/// (set around a shard kill's recovery window); kOpen is worker-owned
/// (tripped by handover-retry exhaustion, half-opened by a probe).
constexpr int kBreakerClosed = 0;
constexpr int kBreakerOpen = 1;
constexpr int kBreakerRecovery = 2;

/// One queued operation, in global ids (the worker resolves local ids
/// when it serves the item).
struct QueueItem {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;          ///< kNoNode marks a handover second leg
  std::uint64_t arrival_ns = 0;  ///< intended arrival (latency origin)
  std::uint64_t deadline_ns = 0;  ///< absolute deadline; 0 = none. Only
                                  ///< fresh items carry one: a handover
                                  ///< second leg always completes (its
                                  ///< first leg already mutated a tree).
  Cost pending_top = 0;           ///< top-tree legs accumulated so far

  bool is_handover() const { return dst == kNoNode; }
};

/// Per-shard inbox: a bounded main queue (dispatcher -> worker) plus a
/// mailbox (worker -> worker handovers) that is unbounded under kBlock
/// and bounded under the degradation modes. MPSC; one mutex and one
/// wakeup per admitted *batch*, not per request.
class ShardInbox {
 public:
  ShardInbox(std::size_t capacity, std::size_t mail_capacity)
      : capacity_(capacity), mail_capacity_(mail_capacity) {}

  /// Dispatcher push; blocks while the main queue is full. Returns true
  /// when it had to wait (the queue was full on arrival) — the
  /// queue_full_blocks signal.
  bool push_main(const QueueItem& item) {
    std::unique_lock<std::mutex> lock(mu_);
    bool waited = false;
    while (main_.size() >= capacity_) {
      waited = true;
      not_full_.wait(lock);
    }
    const bool was_empty = main_.empty() && mail_.empty();
    main_.push_back(item);
    if (was_empty) not_empty_.notify_one();
    return waited;
  }

  /// Dispatcher push under kShed; false when the main queue is full.
  bool try_push_main(const QueueItem& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (main_.size() >= capacity_) return false;
    const bool was_empty = main_.empty() && mail_.empty();
    main_.push_back(item);
    if (was_empty) not_empty_.notify_one();
    return true;
  }

  /// Worker-to-worker handover push; never blocks. False when the mailbox
  /// is bounded (degradation modes) and full — callers retry or shed.
  bool push_mail(const QueueItem& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mail_capacity_ != 0 && mail_.size() >= mail_capacity_) return false;
    const bool was_empty = main_.empty() && mail_.empty();
    mail_.push_back(item);
    if (was_empty) not_empty_.notify_one();
    return true;
  }

  /// Admits up to `max_items` into `out`, mailbox first (handover ops are
  /// half-served; finishing them first bounds cross-shard sojourn).
  /// Blocks while empty; returns 0 only when closed and fully drained.
  std::size_t pop_batch(std::vector<QueueItem>& out, std::size_t max_items) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock,
                    [&] { return closed_ || !mail_.empty() || !main_.empty(); });
    std::size_t n = 0;
    while (n < max_items && !mail_.empty()) {
      out.push_back(mail_.front());
      mail_.pop_front();
      ++n;
    }
    bool popped_main = false;
    while (n < max_items && !main_.empty()) {
      out.push_back(main_.front());
      main_.pop_front();
      popped_main = true;
      ++n;
    }
    if (popped_main) not_full_.notify_one();  // single dispatcher waits here
    return n;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Re-arms a closed, drained inbox so a respawned worker (worker-kill
  /// recovery) or a slot-reusing split can serve from it again.
  void reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
  }

  /// Dispatcher-only (same thread as push_main): the kQueuePressure fault
  /// collapses the bound, the next quiesce barrier restores it.
  void set_capacity(std::size_t capacity) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      capacity_ = capacity;
    }
    not_full_.notify_all();
  }

  std::size_t capacity() {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<QueueItem> mail_;
  std::deque<QueueItem> main_;
  std::size_t capacity_;
  std::size_t mail_capacity_;  ///< 0 = unbounded (kBlock compat mode)
  bool closed_ = false;
};

/// Worker-owned accumulators. Written only by the owning worker thread
/// (a slot keeps one WorkerState across worker-kill respawns and shard
/// renumbering, so counters only ever accumulate); read by the
/// dispatcher at quiesce barriers (ordered by the acquire load of
/// `completed` against the workers' release increments) and after join.
/// The trailing histograms make the struct large enough that neighbouring
/// workers' hot counters do not share a cache line.
struct WorkerState {
  Cost routing = 0;
  Cost rotations = 0;
  Cost edges = 0;
  /// Measured cross/intra split feeding the control plane's cost model;
  /// cross_requests counts completed second legs.
  CostSplit split;
  Cost replica_reads = 0;  ///< intra serves answered by the replica
  std::size_t handovers = 0;
  Cost reordered = 0;  ///< batch slots permuted by the locality schedule
  Cost deadline_expired = 0;  ///< shed at dequeue, pre-mutation
  Cost cross_shed = 0;        ///< handover legs shed by the breaker or
                              ///< retry exhaustion
  Cost breaker_trips = 0;
  std::uint64_t probe_clock = 0;  ///< half-open probe cadence counter
  LatencyHistogram sojourn;
  LatencyHistogram queue_wait;
  LatencyHistogram shed;  ///< age at drop of dequeue/handover sheds
};

/// A queued op whose endpoint the map places on another shard. The map
/// changes only in ControlPlane::barrier, which runs after quiesce has
/// drained every inbox and mailbox, so this is a broken invariant, not a
/// race to recover from: serving it would mutate the wrong tree.
[[noreturn]] void foreign_op(int shard, NodeId node) {
  std::fprintf(stderr,
               "ServeFrontend: a queued op for node %d reached shard %d, "
               "which does not own it\n",
               static_cast<int>(node), shard);
  std::abort();
}

}  // namespace

const char* queue_policy_name(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kBlock:
      return "block";
    case QueuePolicy::kShed:
      return "shed";
    case QueuePolicy::kDeadline:
      return "deadline";
  }
  return "?";
}

ServeFrontend::ServeFrontend(ShardedNetwork& net, FrontendOptions opt)
    : net_(net), opt_(opt) {
  if (opt_.admission_batch < 1)
    throw TreeError("ServeFrontend: admission_batch must be >= 1");
  if (opt_.queue_capacity < 1)
    throw TreeError("ServeFrontend: queue_capacity must be >= 1");
  opt_.schedule.validate();
  if (opt_.schedule.reorders() && opt_.admission_batch < 2)
    throw TreeError(
        "ServeFrontend: locality schedule needs admission_batch >= 2 "
        "(a 1-item batch can never reorder)");
  if (opt_.queue_policy == QueuePolicy::kDeadline && opt_.deadline_ms <= 0.0)
    throw TreeError("ServeFrontend: kDeadline needs deadline_ms > 0");
  if (opt_.queue_policy != QueuePolicy::kDeadline && opt_.deadline_ms != 0.0)
    throw TreeError(
        "ServeFrontend: deadline_ms requires the kDeadline queue policy");
  if (opt_.admit_rate < 0.0 || opt_.admit_burst < 0.0)
    throw TreeError("ServeFrontend: admit_rate/admit_burst must be >= 0");
  if (opt_.handover_retries < 0)
    throw TreeError("ServeFrontend: handover_retries must be >= 0");
  if (opt_.breaker_threshold < 1)
    throw TreeError("ServeFrontend: breaker_threshold must be >= 1");
  if (opt_.faults != nullptr) opt_.faults->validate();
}

FrontendResult ServeFrontend::run(const Trace& trace,
                                  std::span<const std::uint64_t> arrivals) {
  if (arrivals.size() != trace.size())
    throw TreeError("ServeFrontend::run: one arrival time per request");
  TraceStream stream(trace);
  FixedArrivalSchedule schedule(arrivals);
  FrontendResult res = run_stream(stream, schedule);
  rescan_post_intra(res.sim, trace, net_.map());
  return res;
}

FrontendResult ServeFrontend::run_stream(RequestStream& stream,
                                         ArrivalSchedule& schedule) {
  const int S0 = net_.num_shards();
  const std::size_t total = stream.size();
  const bool lifecycle =
      opt_.rebalance != nullptr && opt_.rebalance->lifecycle_enabled();
  // Worker slots are preallocated to the lifecycle ceiling (the planner
  // never splits past max_shards) so the fleet can grow without
  // reallocating any array a live worker reads.
  const int max_workers =
      lifecycle ? std::max(S0, opt_.rebalance->max_shards) : S0;
  const bool degrade = opt_.queue_policy != QueuePolicy::kBlock;
  const std::size_t mail_cap =
      degrade ? (opt_.mailbox_capacity != 0 ? opt_.mailbox_capacity
                                            : 4 * opt_.queue_capacity)
              : 0;  // kBlock keeps the lossless unbounded mailbox

  FrontendResult res;
  ControlPlane plane(net_, opt_.rebalance, opt_.faults, res.sim);

  // Worker slot w serves shard w. The fleet changes shape only at quiesce
  // barriers, where every worker is parked in pop_batch, and the change is
  // published through the inbox mutexes (any item a worker pops was pushed
  // after it). `route_epoch` counts those changes: workers re-resolve
  // their tree pointer when it moves (splits and merges reallocate the
  // shard vector, so a cached pointer can dangle across a barrier).
  const auto n_slots = static_cast<std::size_t>(max_workers);
  std::vector<std::unique_ptr<ShardInbox>> inboxes(n_slots);  // mutexes
                                                              // don't move
  std::vector<WorkerState> workers(n_slots);
  std::vector<std::thread> threads(n_slots);
  std::atomic<std::uint64_t> route_epoch{0};
  // Per-shard circuit breakers (degradation modes only; see file comment).
  std::vector<std::atomic<int>> breaker_state(n_slots);
  std::vector<std::atomic<int>> breaker_failures(n_slots);
  std::atomic<std::size_t> completed{0};

  const Clock::time_point start = Clock::now();
  auto now_ns = [&start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };

  // ---- dynamic worker fleet -------------------------------------------
  auto worker_loop = [&](int w) {
    WorkerState& ws = workers[static_cast<std::size_t>(w)];
    ShardInbox& inbox = *inboxes[static_cast<std::size_t>(w)];
    // Resolved lazily at the first popped batch (sentinel epoch): an idle
    // worker that reads the shard vector at startup has no happens-before
    // edge to a later barrier's split/merge realloc — it completed
    // nothing, so the quiesce never observed it. Every read below is
    // sandwiched between an inbox pop and this worker's own `completed`
    // release, which the barrier acquires.
    const int my_shard = w;
    const KArySplayNet* shard = nullptr;
    std::uint64_t seen_epoch = ~std::uint64_t{0};
    std::uint64_t rng =
        opt_.backoff_seed ^
        (kSplitmix64Gamma * (static_cast<std::uint64_t>(w) + 1));
    // Deterministic backoff between handover retries: exponential base
    // plus seeded splitmix64 jitter, microseconds-scale so retry
    // exhaustion resolves well under any realistic deadline. The schedule
    // is a pure function of (backoff_seed, worker slot).
    auto backoff = [&](int attempt) {
      const std::uint64_t base = 2'000ull << std::min(attempt, 10);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          base + splitmix64_next(rng) % (base / 2 + 1)));
    };
    // Shed bookkeeping for an item this worker drops (deadline at
    // dequeue, breaker, retry exhaustion): record its age and dispose of
    // it so the quiesce accounting sees every admitted request exactly
    // once.
    auto shed_item = [&](const QueueItem& item) {
      ws.shed.record(now_ns() - item.arrival_ns);
      completed.fetch_add(1, std::memory_order_release);
    };
    // Delivers a mailbox leg to `target`'s worker. kBlock: unbounded push,
    // always succeeds. Degradation modes: the target's breaker may shed
    // outright (open or mid-recovery), a full mailbox is retried with
    // deterministic backoff, and exhaustion feeds the breaker. Returns
    // false when the leg was shed (caller completes it via shed_item).
    auto deliver = [&](int target, const QueueItem& leg) -> bool {
      ShardInbox& box = *inboxes[static_cast<std::size_t>(target)];
      if (!degrade) {
        box.push_mail(leg);
        return true;
      }
      std::atomic<int>& st = breaker_state[static_cast<std::size_t>(target)];
      std::atomic<int>& failures =
          breaker_failures[static_cast<std::size_t>(target)];
      const int state = st.load(std::memory_order_acquire);
      if (state == kBreakerRecovery) return false;
      if (state == kBreakerOpen) {
        // Half-open: every 16th leg probes the mailbox; one success
        // closes the breaker again.
        if (++ws.probe_clock % 16 != 0) return false;
        if (box.push_mail(leg)) {
          st.store(kBreakerClosed, std::memory_order_release);
          failures.store(0, std::memory_order_relaxed);
          return true;
        }
        return false;
      }
      for (int attempt = 0;; ++attempt) {
        if (box.push_mail(leg)) {
          failures.store(0, std::memory_order_relaxed);
          return true;
        }
        if (attempt >= opt_.handover_retries) break;
        backoff(attempt);
      }
      if (failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
          opt_.breaker_threshold) {
        int expect = kBreakerClosed;
        if (st.compare_exchange_strong(expect, kBreakerOpen))
          ++ws.breaker_trips;
      }
      return false;
    };
    std::vector<QueueItem> batch;
    batch.reserve(static_cast<std::size_t>(opt_.admission_batch));
    auto process_item = [&](const QueueItem& item) {
      const ShardMap& map = net_.map();
      if (map.shard_of(item.src) != my_shard) foreign_op(my_shard, item.src);
      if (item.is_handover()) {
        // Second leg of a cross-shard request: ascend v, charge the
        // accumulated top-tree legs, complete.
        const ServeResult sr =
            net_.serve_local(my_shard, map.local_of(item.src), kNoNode);
        ws.routing += sr.routing_cost + item.pending_top;
        ws.rotations += sr.rotations;
        ws.edges += sr.edge_changes;
        ws.split.cross_cost += sr.routing_cost +
                               static_cast<Cost>(sr.rotations) +
                               item.pending_top;
        ++ws.split.cross_requests;
        ws.sojourn.record(now_ns() - item.arrival_ns);
        completed.fetch_add(1, std::memory_order_release);
        return;
      }
      // Deadline shed at dequeue, before any tree mutation: a request
      // that expired while queued never touches state.
      if (item.deadline_ns != 0 && now_ns() > item.deadline_ns) {
        ++ws.deadline_expired;
        shed_item(item);
        return;
      }
      ws.queue_wait.record(now_ns() - item.arrival_ns);
      const int b = map.shard_of(item.dst);
      if (b == my_shard) {
        const ServeResult sr = net_.serve_local(
            my_shard, map.local_of(item.src), map.local_of(item.dst));
        if (net_.has_replica(my_shard)) ++ws.replica_reads;
        ws.routing += sr.routing_cost;
        ws.rotations += sr.rotations;
        ws.edges += sr.edge_changes;
        ws.split.intra_cost +=
            sr.routing_cost + static_cast<Cost>(sr.rotations);
        ++ws.split.intra_requests;
        ws.sojourn.record(now_ns() - item.arrival_ns);
        completed.fetch_add(1, std::memory_order_release);
      } else {
        // First leg: ascend u to this shard's root, hand the request
        // over to v's shard with the top-tree route priced in.
        const ServeResult sr =
            net_.serve_local(my_shard, map.local_of(item.src), kNoNode);
        ws.routing += sr.routing_cost;
        ws.rotations += sr.rotations;
        ws.edges += sr.edge_changes;
        ws.split.cross_cost +=
            sr.routing_cost + static_cast<Cost>(sr.rotations);
        ++ws.handovers;
        QueueItem leg;
        leg.src = item.dst;
        leg.arrival_ns = item.arrival_ns;
        leg.pending_top = net_.top_distance(my_shard, b);
        if (!deliver(b, leg)) {
          ++ws.cross_shed;
          shed_item(leg);
        }
      }
    };
    // Resolves a queued item into this worker's shard-local id space for
    // the locality scheduler; handovers and first legs key as root
    // ascents. Fleet and map changes only land at quiesce barriers, so
    // the map is stable per batch and every item's source is local
    // (process_item checks it).
    auto resolve = [&](const QueueItem& item) -> ScheduleEndpoints {
      const ShardMap& map = net_.map();
      const NodeId u = map.local_of(item.src);
      if (item.is_handover() || map.shard_of(item.dst) != my_shard)
        return {u, kNoNode};  // root ascent (second or first leg)
      return {u, map.local_of(item.dst)};
    };
    LocalityScheduler scheduler(opt_.schedule);
    for (;;) {
      batch.clear();
      if (inbox.pop_batch(batch,
                          static_cast<std::size_t>(opt_.admission_batch)) ==
          0) {
        // Closed and drained. += so counters survive worker-kill respawns
        // on this slot.
        ws.reordered += scheduler.reordered();
        return;
      }
      const std::uint64_t e = route_epoch.load(std::memory_order_acquire);
      if (e != seen_epoch) {  // fleet changed shape at a barrier
        seen_epoch = e;
        shard = &net_.shard(my_shard);
      }
      scheduler.run(shard->tree(), std::span<QueueItem>(batch), resolve,
                    process_item);
    }
  };

  // A slot's inbox outlives its worker: a respawn (worker kill) or a later
  // split on a slot a merge retired reopens it.
  auto spawn_worker = [&](int w) {
    auto& slot = inboxes[static_cast<std::size_t>(w)];
    if (slot == nullptr)
      slot = std::make_unique<ShardInbox>(opt_.queue_capacity, mail_cap);
    else
      slot->reopen();
    threads[static_cast<std::size_t>(w)] = std::thread(worker_loop, w);
  };
  auto retire_worker = [&](int w) {
    inboxes[static_cast<std::size_t>(w)]->close();
    threads[static_cast<std::size_t>(w)].join();
  };
  for (int s = 0; s < S0; ++s) spawn_worker(s);

  // ---- open-loop dispatcher (caller thread) ---------------------------
  auto quiesce = [&](std::size_t dispatched) {
    while (completed.load(std::memory_order_acquire) < dispatched)
      std::this_thread::yield();
  };

  // Queue-pressure windows: (shard, original capacity) pairs, restored at
  // the next quiesce barrier, before any split or merge renumbers shards.
  std::vector<std::pair<int, std::size_t>> pressured;
  auto restore_pressure = [&] {
    for (const auto& [s, cap] : pressured)
      inboxes[static_cast<std::size_t>(s)]->set_capacity(cap);
    pressured.clear();
  };
  // Barriers reset the breakers: the fleet just proved it can drain, so
  // congestion-tripped breakers half-open wholesale (and merge renumbering
  // would stale per-shard state anyway).
  auto reset_breakers = [&] {
    if (!degrade) return;
    for (int i = 0; i < max_workers; ++i) {
      breaker_state[static_cast<std::size_t>(i)].store(
          kBreakerClosed, std::memory_order_release);
      breaker_failures[static_cast<std::size_t>(i)].store(
          0, std::memory_order_relaxed);
    }
  };

  // ---- scripted fault injection (sim/fault.hpp) -----------------------
  // While events are pending the dispatcher keeps the requests admitted
  // since the plane's last fleet snapshot; resume points are run start,
  // post-recovery and post-epoch-barrier instants, so the tail never spans
  // a map change. A shard kill quiesces the (drained, handovers included)
  // pipeline, then the plane recovers the shard: promotion, or restore
  // plus a dispatch-order (FIFO) replay of the tail. At S = 1 under FIFO
  // admission that replay is bit-identical to the lost state; at S > 1 it
  // is dispatch-order-consistent (the racy mailbox interleaving that
  // produced the lost state was never recorded).
  std::vector<Request> fault_tail;
  auto snapshot_all = [&] {
    plane.snapshot_all();
    fault_tail.clear();
  };
  auto fire_event = [&](const FaultEvent& ev, std::size_t disp) {
    switch (ev.kind) {
      case FaultKind::kShardKill: {
        // Open the recovery breaker first so in-flight cross legs shed
        // instead of serving into the doomed shard (degradation modes;
        // kBlock stays lossless and drains them).
        if (degrade)
          breaker_state[static_cast<std::size_t>(ev.shard)].store(
              kBreakerRecovery, std::memory_order_release);
        quiesce(disp);
        restore_pressure();
        plane.recover(ev.shard, fault_tail, ScheduleConfig{});
        if (degrade) {
          breaker_state[static_cast<std::size_t>(ev.shard)].store(
              kBreakerClosed, std::memory_order_release);
          breaker_failures[static_cast<std::size_t>(ev.shard)].store(
              0, std::memory_order_relaxed);
        }
        snapshot_all();
        break;
      }
      case FaultKind::kWorkerKill: {
        // The thread dies, the shard's data survives: retire the worker
        // at the quiesce barrier and respawn a fresh one on the same
        // slot (same inbox, same accumulated counters).
        quiesce(disp);
        restore_pressure();
        const Clock::time_point t0 = Clock::now();
        retire_worker(ev.shard);
        spawn_worker(ev.shard);
        plane.note_recovery(t0);
        snapshot_all();
        break;
      }
      case FaultKind::kQueuePressure: {
        // No barrier: the shard's inbox bound collapses mid-flight and
        // the admission policy has to cope until the next barrier
        // restores it. The crash tail keeps accumulating (no tree or map
        // change to re-anchor against).
        ShardInbox& box = *inboxes[static_cast<std::size_t>(ev.shard)];
        pressured.emplace_back(ev.shard, box.capacity());
        box.set_capacity(std::max<std::size_t>(1, opt_.queue_capacity / 8));
        break;
      }
    }
  };
  snapshot_all();

  // The epoch barrier: drain the pipeline, then let the plane measure,
  // plan and apply — migrations and, when configured, the full shard
  // lifecycle — and reshape the worker fleet to match: a split's new
  // shard gets a worker, a merge retires the last slot (shard ids above
  // the vacated one shifted down, and worker w serves shard w). The
  // dispatcher keeps the arrival clock running, so this pause is charged
  // to every request that arrives during it.
  auto epoch_barrier = [&](std::size_t dispatched) {
    quiesce(dispatched);
    restore_pressure();
    reset_breakers();
    CostSplit served;
    for (const WorkerState& ws : workers) served += ws.split;
    const BarrierOutcome out = plane.barrier(served, 0);
    if (out.split_to >= 0) spawn_worker(out.split_to);
    if (out.merged_from >= 0) retire_worker(net_.num_shards());
    if (out.changed) route_epoch.fetch_add(1, std::memory_order_release);
  };

  // ---- admission control ----------------------------------------------
  const bool throttled = opt_.admit_rate > 0.0;
  const double burst_cap = opt_.admit_burst > 0.0 ? opt_.admit_burst : 64.0;
  double tokens = burst_cap;
  std::uint64_t bucket_clock = 0;  // last intended-arrival refill instant
  const std::uint64_t deadline_budget_ns =
      opt_.queue_policy == QueuePolicy::kDeadline
          ? static_cast<std::uint64_t>(opt_.deadline_ms * 1e6)
          : 0;
  // Admission-time sheds are recorded by the dispatcher itself.
  auto shed_admission = [&](std::uint64_t arrival_ns) {
    res.shed.record(now_ns() - arrival_ns);
  };

  std::size_t offered = 0;     // pulled from the schedule (admitted + shed)
  std::size_t dispatched = 0;  // admitted into a queue
  std::size_t cross_dispatched = 0;
  std::uint64_t last_arrival_ns = 0;
  std::vector<Request> chunk(std::min(total, kStreamChunkRequests));
  while (true) {
    const std::size_t got = stream.fill(chunk);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      while (plane.next_fault() != nullptr &&
             plane.next_fault()->at_request == offered)
        fire_event(plane.take_fault(), dispatched);
      // Pace to the arrival schedule: sleep for coarse gaps, spin out the
      // last stretch (sleep_until wakes late by scheduler quanta, which
      // would throttle multi-million-req/s schedules).
      const std::uint64_t due = schedule.next();
      last_arrival_ns = due;
      if (due > 0) {
        constexpr std::uint64_t kSpinWindowNs = 50'000;
        std::uint64_t now = now_ns();
        if (due > now + kSpinWindowNs)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinWindowNs));
        while (now_ns() < due) {
          // busy-wait: the dispatcher is the clock of the experiment
        }
      }
      ++offered;
      // Token bucket, refilled from the intended-arrival clock: the
      // admit/shed pattern is a deterministic function of the schedule,
      // not of wall-clock jitter.
      if (throttled) {
        tokens = std::min(burst_cap,
                          tokens + static_cast<double>(due - bucket_clock) *
                                       1e-9 * opt_.admit_rate);
        bucket_clock = due;
        if (tokens < 1.0) {
          ++res.sim.shed_throttled;
          shed_admission(due);
          continue;
        }
        tokens -= 1.0;
      }
      std::uint64_t deadline_ns = 0;
      if (deadline_budget_ns != 0) {
        deadline_ns = due + deadline_budget_ns;
        if (now_ns() > deadline_ns) {  // dead on arrival (backpressure)
          ++res.sim.deadline_expired;
          shed_admission(due);
          continue;
        }
      }
      const Request& r = chunk[i];
      const int a = net_.map().shard_of(r.src);
      QueueItem item;
      item.src = r.src;
      item.dst = r.dst;
      item.arrival_ns = due;
      item.deadline_ns = deadline_ns;
      ShardInbox& box = *inboxes[static_cast<std::size_t>(a)];
      if (opt_.queue_policy == QueuePolicy::kShed) {
        if (!box.try_push_main(item)) {
          ++res.sim.queue_full_blocks;
          ++res.sim.shed_queue_full;
          shed_admission(due);
          continue;
        }
      } else {
        if (box.push_main(item)) ++res.sim.queue_full_blocks;
      }
      if (net_.map().shard_of(r.dst) != a) ++cross_dispatched;
      ++dispatched;
      if (plane.next_fault() != nullptr) fault_tail.push_back(r);
      if (plane.adaptive()) {
        plane.observe(r);
        if (dispatched % plane.epoch_requests() == 0 && dispatched < total) {
          epoch_barrier(dispatched);
          // The barrier may have rewritten the map or fleet: re-anchor
          // the crash tail so a later replay never spans it.
          snapshot_all();
        }
      }
    }
  }

  res.sim.requests = offered;
  if (offered > 0 && last_arrival_ns > 0)
    res.offered_rate = static_cast<double>(offered) /
                       (static_cast<double>(last_arrival_ns) / 1e9);

  quiesce(dispatched);
  res.elapsed_seconds = static_cast<double>(now_ns()) / 1e9;
  for (auto& inbox : inboxes)
    if (inbox != nullptr) inbox->close();
  for (std::thread& t : threads)
    if (t.joinable()) t.join();

  // ---- aggregation ----------------------------------------------------
  for (const WorkerState& ws : workers) {
    res.sim.routing_cost += ws.routing;
    res.sim.rotation_count += ws.rotations;
    res.sim.edge_changes += ws.edges;
    res.sim.replica_reads += ws.replica_reads;
    res.handovers += ws.handovers;
    res.sim.reordered_requests += ws.reordered;
    res.sim.deadline_expired += ws.deadline_expired;
    res.sim.cross_shed += ws.cross_shed;
    res.sim.breaker_trips += ws.breaker_trips;
    res.sojourn.merge(ws.sojourn);
    res.queue_wait.merge(ws.queue_wait);
    res.shed.merge(ws.shed);
  }
  res.sim.shed_requests = res.sim.shed_queue_full + res.sim.shed_throttled +
                          res.sim.deadline_expired + res.sim.cross_shed;
  res.sim.schedule = opt_.schedule.policy;
  res.sim.final_shards = net_.num_shards();
  res.sim.cross_shard = static_cast<Cost>(cross_dispatched);
  net_.note_cross_served(static_cast<Cost>(cross_dispatched));
  res.route_epochs = route_epoch.load(std::memory_order_relaxed);
  res.achieved_rate =
      res.elapsed_seconds > 0.0
          ? static_cast<double>(res.sojourn.count()) / res.elapsed_seconds
          : 0.0;
  // Dispatch-time intra fraction: the fraction of admitted requests that
  // were intra-shard under the map they were routed by. The Trace&
  // adapter upgrades this to a final-map re-scan when the map changed.
  res.sim.post_intra_fraction =
      dispatched == 0 ? 0.0
                      : 1.0 - static_cast<double>(cross_dispatched) /
                                  static_cast<double>(dispatched);
  if (res.sojourn.count() > 0) {
    res.sim.latency.measured = true;
    res.sim.latency.mean_us = res.sojourn.mean() / 1e3;
    res.sim.latency.p50_us = static_cast<double>(res.sojourn.p50()) / 1e3;
    res.sim.latency.p99_us = static_cast<double>(res.sojourn.p99()) / 1e3;
    res.sim.latency.p999_us = static_cast<double>(res.sojourn.p999()) / 1e3;
    res.sim.latency.max_us = static_cast<double>(res.sojourn.max()) / 1e3;
  }
  return res;
}

}  // namespace san
