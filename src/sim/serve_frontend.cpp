#include "sim/serve_frontend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
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
/// Seeds the per-worker deterministic backoff between handover retries.
constexpr std::uint64_t kBackoffSeed = 0x5EED;

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
/// renumbering, so counters only ever accumulate); read, and the served
/// log cleared, by the dispatcher at quiesce barriers (ordered by the
/// acquire load of `completed` against the workers' release increments)
/// and after join.
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
  /// While a shard kill is pending: every op served since the last resume
  /// point, in local ids and served order (the crash-recovery replay).
  std::vector<ShardOp> served;
};

/// Worker w's slot, allocated when the worker first spawns. It outlives
/// its worker: a respawn (worker kill) or a later split on a slot a merge
/// retired reopens the inbox, and the counters reach the aggregation.
/// Heap-allocated, so a worker's references survive the slot vector
/// growing at a split barrier.
struct Slot {
  Slot(std::size_t capacity, std::size_t mail_capacity)
      : inbox(capacity, mail_capacity) {}

  ShardInbox inbox;
  WorkerState state;
  /// Circuit breaker (degradation modes only; see the header comment).
  std::atomic<int> breaker{kBreakerClosed};
  std::atomic<int> breaker_failures{0};
  std::thread thread;
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
  const bool degrade = opt_.queue_policy != QueuePolicy::kBlock;
  const std::size_t mail_cap =
      degrade ? (opt_.mailbox_capacity != 0 ? opt_.mailbox_capacity
                                            : 4 * opt_.queue_capacity)
              : 0;  // kBlock keeps the lossless unbounded mailbox

  FrontendResult res;
  ControlPlane plane(net_, opt_.rebalance, opt_.faults, res.sim);

  // Slot w serves shard w. The fleet changes shape only at quiesce
  // barriers, where every worker is parked in pop_batch, and the change is
  // published through the inbox mutexes (any item a worker pops was pushed
  // after it), so a worker reads its shard's tree once per popped batch.
  // Only the dispatcher grows `slots`; a worker reads another's slot only
  // to hand a leg over, which happens before that request completes.
  std::vector<std::unique_ptr<Slot>> slots;
  std::atomic<std::size_t> completed{0};
  // Set at resume points while a shard kill is pending; workers log what
  // they serve only then.
  bool log_served = false;

  const Clock::time_point start = Clock::now();
  auto now_ns = [&start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };

  // ---- dynamic worker fleet -------------------------------------------
  auto worker_loop = [&](int w, Slot& slot) {
    WorkerState& ws = slot.state;
    std::uint64_t rng =
        kBackoffSeed ^ (kSplitmix64Gamma * (static_cast<std::uint64_t>(w) + 1));
    // Deterministic backoff between handover retries: exponential base
    // plus seeded splitmix64 jitter, microseconds-scale so retry
    // exhaustion resolves well under any realistic deadline. The schedule
    // is a pure function of the worker slot.
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
      Slot& to = *slots[static_cast<std::size_t>(target)];
      if (!degrade) {
        to.inbox.push_mail(leg);
        return true;
      }
      const int state = to.breaker.load(std::memory_order_acquire);
      if (state == kBreakerRecovery) return false;
      if (state == kBreakerOpen) {
        // Half-open: every 16th leg probes the mailbox; one success
        // closes the breaker again.
        if (++ws.probe_clock % 16 != 0) return false;
        if (to.inbox.push_mail(leg)) {
          to.breaker.store(kBreakerClosed, std::memory_order_release);
          to.breaker_failures.store(0, std::memory_order_relaxed);
          return true;
        }
        return false;
      }
      for (int attempt = 0;; ++attempt) {
        if (to.inbox.push_mail(leg)) {
          to.breaker_failures.store(0, std::memory_order_relaxed);
          return true;
        }
        if (attempt >= opt_.handover_retries) break;
        backoff(attempt);
      }
      if (to.breaker_failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
          opt_.breaker_threshold) {
        int expect = kBreakerClosed;
        if (to.breaker.compare_exchange_strong(expect, kBreakerOpen))
          ++ws.breaker_trips;
      }
      return false;
    };
    // Serves one op on shard w in local ids (v == kNoNode ascends u to the
    // root), logs it while a shard kill is pending, books the serve
    // counters and returns its routing + rotations.
    auto serve = [&](NodeId u, NodeId v) -> Cost {
      const ServeResult sr = net_.serve_local(w, u, v);
      if (log_served) ws.served.push_back({u, v});
      ws.routing += sr.routing_cost;
      ws.rotations += sr.rotations;
      ws.edges += sr.edge_changes;
      return sr.routing_cost + static_cast<Cost>(sr.rotations);
    };
    std::vector<QueueItem> batch;
    batch.reserve(static_cast<std::size_t>(opt_.admission_batch));
    auto process_item = [&](const QueueItem& item) {
      const ShardMap& map = net_.map();
      if (map.shard_of(item.src) != w) foreign_op(w, item.src);
      const NodeId u = map.local_of(item.src);
      if (item.is_handover()) {
        // Second leg of a cross-shard request: ascend v, charge the
        // accumulated top-tree legs, complete.
        ws.routing += item.pending_top;
        ws.split.cross_cost += serve(u, kNoNode) + item.pending_top;
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
      if (b == w) {
        ws.split.intra_cost += serve(u, map.local_of(item.dst));
        if (net_.has_replica(w)) ++ws.replica_reads;
        ++ws.split.intra_requests;
        ws.sojourn.record(now_ns() - item.arrival_ns);
        completed.fetch_add(1, std::memory_order_release);
      } else {
        // First leg: ascend u to this shard's root, hand the request
        // over to v's shard with the top-tree route priced in.
        ws.split.cross_cost += serve(u, kNoNode);
        ++ws.handovers;
        QueueItem leg;
        leg.src = item.dst;
        leg.arrival_ns = item.arrival_ns;
        leg.pending_top = net_.top_distance(w, b);
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
      if (item.is_handover() || map.shard_of(item.dst) != w)
        return {u, kNoNode};  // root ascent (second or first leg)
      return {u, map.local_of(item.dst)};
    };
    LocalityScheduler scheduler(opt_.schedule);
    for (;;) {
      batch.clear();
      if (slot.inbox.pop_batch(
              batch, static_cast<std::size_t>(opt_.admission_batch)) == 0) {
        // Closed and drained. += so counters survive worker-kill respawns
        // on this slot.
        ws.reordered += scheduler.reordered();
        return;
      }
      scheduler.run(net_.shard(w).tree(), std::span<QueueItem>(batch),
                    resolve, process_item);
    }
  };

  auto spawn_worker = [&](int w) {
    const auto i = static_cast<std::size_t>(w);
    if (i == slots.size())
      slots.push_back(std::make_unique<Slot>(opt_.queue_capacity, mail_cap));
    else
      slots[i]->inbox.reopen();
    slots[i]->thread = std::thread(worker_loop, w, std::ref(*slots[i]));
  };
  auto retire_worker = [&](int w) {
    Slot& slot = *slots[static_cast<std::size_t>(w)];
    slot.inbox.close();
    slot.thread.join();
  };
  // Joins every worker before the locals it uses go, also when the
  // dispatcher throws (a fault script or recovery error).
  auto join_all = [&] {
    for (const auto& slot : slots) slot->inbox.close();
    for (const auto& slot : slots)
      if (slot->thread.joinable()) slot->thread.join();
  };
  struct JoinOnExit {
    decltype(join_all)& join;
    ~JoinOnExit() { join(); }
  } join_on_exit{join_all};
  for (int s = 0; s < S0; ++s) spawn_worker(s);

  // ---- open-loop dispatcher (caller thread) ---------------------------
  auto quiesce = [&](std::size_t dispatched) {
    while (completed.load(std::memory_order_acquire) < dispatched)
      std::this_thread::yield();
  };

  // Queue-pressure windows end at the next quiesce barrier, before any
  // split or merge renumbers shards.
  std::vector<int> pressured;
  auto restore_pressure = [&] {
    for (int s : pressured)
      slots[static_cast<std::size_t>(s)]->inbox.set_capacity(
          opt_.queue_capacity);
    pressured.clear();
  };
  auto close_breaker = [&](Slot& slot) {
    slot.breaker.store(kBreakerClosed, std::memory_order_release);
    slot.breaker_failures.store(0, std::memory_order_relaxed);
  };

  // ---- scripted fault injection (sim/fault.hpp) -----------------------
  // Resume points are run start and the instants after a recovery, a
  // worker kill or an epoch barrier, all quiesced. Each one snapshots the
  // fleet and clears the workers' served logs while a shard kill is
  // pending, so a log never spans a map change. A shard kill quiesces the
  // (drained, handovers included) pipeline, then the plane recovers the
  // shard: promotion, or restore plus a replay of the log its worker kept.
  auto resume = [&] {
    plane.snapshot_all();
    log_served = plane.kill_pending();
    for (const auto& slot : slots) slot->state.served.clear();
  };
  auto fire_event = [&](const FaultEvent& ev, std::size_t disp) {
    Slot& slot = *slots[static_cast<std::size_t>(ev.shard)];
    switch (ev.kind) {
      case FaultKind::kShardKill: {
        // Open the recovery breaker first so in-flight cross legs shed
        // instead of serving into the doomed shard (degradation modes;
        // kBlock stays lossless and drains them).
        if (degrade)
          slot.breaker.store(kBreakerRecovery, std::memory_order_release);
        quiesce(disp);
        restore_pressure();
        plane.recover(ev.shard, slot.state.served);
        if (degrade) close_breaker(slot);
        resume();
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
        resume();
        break;
      }
      case FaultKind::kQueuePressure:
        // No barrier: the shard's inbox bound collapses mid-flight and
        // the admission policy has to cope until the next barrier
        // restores it. The served logs keep growing (no tree or map
        // change to re-anchor against).
        pressured.push_back(ev.shard);
        slot.inbox.set_capacity(
            std::max<std::size_t>(1, opt_.queue_capacity / 8));
        break;
    }
  };
  resume();

  // The epoch barrier: drain the pipeline, then let the plane measure,
  // plan and apply — migrations and, when configured, the full shard
  // lifecycle — and reshape the worker fleet to match: a split's new
  // shard gets a worker, a merge retires the last slot (shard ids above
  // the vacated one shifted down, and worker w serves shard w). Breakers
  // reset: the fleet just proved it can drain, so congestion-tripped
  // breakers half-open wholesale. The dispatcher keeps the arrival clock
  // running, so this pause is charged to every request that arrives
  // during it.
  auto epoch_barrier = [&](std::size_t dispatched) {
    quiesce(dispatched);
    restore_pressure();
    if (degrade)
      for (const auto& slot : slots) close_breaker(*slot);
    CostSplit served;
    for (const auto& slot : slots) served += slot->state.split;
    const BarrierOutcome out = plane.barrier(served, 0);
    if (out.split_to >= 0) spawn_worker(out.split_to);
    if (out.merged_from >= 0) retire_worker(net_.num_shards());
    if (out.changed) ++res.route_epochs;
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
      ShardInbox& box = slots[static_cast<std::size_t>(a)]->inbox;
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
      if (plane.adaptive()) {
        plane.observe(r);
        if (dispatched % plane.epoch_requests() == 0 && dispatched < total) {
          epoch_barrier(dispatched);
          // The barrier may have rewritten the map or fleet: re-anchor
          // the served logs so a later replay never spans it.
          resume();
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
  join_all();

  // ---- aggregation ----------------------------------------------------
  for (const auto& slot : slots) {
    const WorkerState& ws = slot->state;
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
