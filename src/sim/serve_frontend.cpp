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
/// Seeds the per-worker deterministic backoff between handover retries.
constexpr std::uint64_t kBackoffSeed = 0x5EED;
/// Max requests a worker admits per wakeup (batched admission).
constexpr std::size_t kAdmissionBatch = 64;
/// Depth of the admit_rate token bucket.
constexpr double kAdmitBurst = 64.0;

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

class Fleet;

/// Worker w serves shard w. Allocated when the worker first spawns, it
/// outlives its thread: a respawn (worker kill) or a later split on an
/// index a merge retired reopens the same inbox, so the counters only ever
/// accumulate. Heap-allocated, so a thread's `this` survives the fleet
/// growing at a split barrier.
///
/// Only the worker's own thread writes its counters, histograms, probe
/// clock and served log. The dispatcher reads them, and clears the log, at
/// quiesce barriers (ordered by Fleet::quiesce's acquire load of
/// `completed` against the workers' release increments) and after join.
/// Another worker touches only the inbox and the breaker, to hand a leg
/// over.
class Worker {
 public:
  Worker(Fleet& fleet, int w);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start() { thread_ = std::thread(&Worker::loop, this); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  void close_breaker() {
    breaker.store(kBreakerClosed, std::memory_order_release);
    breaker_failures.store(0, std::memory_order_relaxed);
  }

  ShardInbox inbox;
  /// Circuit breaker (degradation modes only; see the header comment).
  std::atomic<int> breaker{kBreakerClosed};
  std::atomic<int> breaker_failures{0};

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
  LatencyHistogram sojourn;
  LatencyHistogram queue_wait;
  LatencyHistogram shed;  ///< age at drop of dequeue/handover sheds
  /// While a shard kill is pending: every op served since the last resume
  /// point, in local ids and served order (the crash-recovery replay).
  std::vector<ShardOp> served;

 private:
  void loop();
  void process_item(const QueueItem& item);
  bool deliver(int target, const QueueItem& leg);
  Cost serve(NodeId u, NodeId v);
  void shed_item(const QueueItem& item);

  Fleet& fleet_;
  const int w_;
  std::uint64_t rng_ = 0;          ///< backoff jitter state
  std::uint64_t probe_clock_ = 0;  ///< half-open probe cadence counter
  std::thread thread_;
};

/// The worker fleet and the run state its workers share; worker w sits at
/// index w. Only the dispatcher changes the fleet, and only at quiesce
/// barriers, where every worker is parked in pop_batch. The change is
/// published through the inbox mutexes (any item a worker pops was pushed
/// after it), so a worker reads its shard's tree once per popped batch,
/// and reads another worker only to hand a leg over, before that request
/// completes. The destructor joins every worker, also when the dispatcher
/// throws (a fault script or recovery error).
class Fleet {
 public:
  Fleet(ShardedNetwork& network, const FrontendOptions& options)
      : net(network),
        opt(options),
        degrade(opt.queue_policy != QueuePolicy::kBlock),
        mail_cap(!degrade                    ? 0
                 : opt.mailbox_capacity != 0 ? opt.mailbox_capacity
                                             : 4 * opt.queue_capacity) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { join(); }

  Worker& operator[](int w) const {
    return *workers[static_cast<std::size_t>(w)];
  }
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  /// Starts worker w: a new one at the end of the fleet, or a fresh thread
  /// on the reopened inbox of a killed or retired one.
  void spawn(int w) {
    const auto i = static_cast<std::size_t>(w);
    if (i == workers.size())
      workers.push_back(std::make_unique<Worker>(*this, w));
    else
      workers[i]->inbox.reopen();
    workers[i]->start();
  }
  void retire(int w) {
    (*this)[w].inbox.close();
    (*this)[w].join();
  }
  void join() {
    for (const auto& worker : workers) worker->inbox.close();
    for (const auto& worker : workers) worker->join();
  }
  /// Waits until every dispatched request has completed or been shed, then
  /// ends the queue-pressure windows: every inbox gets back queue_capacity,
  /// the only bound an inbox is created with.
  void quiesce(std::size_t dispatched) {
    while (completed.load(std::memory_order_acquire) < dispatched)
      std::this_thread::yield();
    for (const auto& worker : workers)
      worker->inbox.set_capacity(opt.queue_capacity);
  }

  ShardedNetwork& net;
  const FrontendOptions& opt;
  const bool degrade;
  const std::size_t mail_cap;  ///< 0 = unbounded (kBlock stays lossless)
  const Clock::time_point start = Clock::now();
  std::atomic<std::size_t> completed{0};
  /// Set at resume points while a shard kill is pending; workers log what
  /// they serve only then.
  bool log_served = false;
  std::vector<std::unique_ptr<Worker>> workers;
};

Worker::Worker(Fleet& fleet, int w)
    : inbox(fleet.opt.queue_capacity, fleet.mail_cap), fleet_(fleet), w_(w) {}

void Worker::loop() {
  // The backoff schedule is a pure function of the worker index, restarted
  // with every thread.
  rng_ = kBackoffSeed ^
         (kSplitmix64Gamma * (static_cast<std::uint64_t>(w_) + 1));
  // Resolves a queued item into this worker's shard-local id space for
  // the locality scheduler; handovers and first legs key as root
  // ascents. The map is stable per batch and every item's source is local
  // (process_item checks it).
  const auto resolve = [this](const QueueItem& item) -> ScheduleEndpoints {
    const ShardMap& map = fleet_.net.map();
    const NodeId u = map.local_of(item.src);
    if (item.is_handover() || map.shard_of(item.dst) != w_)
      return {u, kNoNode};  // root ascent (second or first leg)
    return {u, map.local_of(item.dst)};
  };
  const auto process = [this](const QueueItem& item) { process_item(item); };
  LocalityScheduler scheduler(fleet_.opt.schedule);
  std::vector<QueueItem> batch;
  batch.reserve(kAdmissionBatch);
  while (inbox.pop_batch(batch, kAdmissionBatch) != 0) {
    scheduler.run(fleet_.net.shard(w_).tree(), std::span<QueueItem>(batch),
                  resolve, process);
    batch.clear();
  }
  // Closed and drained. += so the count survives worker-kill respawns.
  reordered += scheduler.reordered();
}

void Worker::process_item(const QueueItem& item) {
  const ShardMap& map = fleet_.net.map();
  if (map.shard_of(item.src) != w_) foreign_op(w_, item.src);
  const NodeId u = map.local_of(item.src);
  if (item.is_handover()) {
    // Second leg of a cross-shard request: ascend v, charge the
    // accumulated top-tree legs, complete.
    routing += item.pending_top;
    split.cross_cost += serve(u, kNoNode) + item.pending_top;
    ++split.cross_requests;
    sojourn.record(fleet_.now_ns() - item.arrival_ns);
    fleet_.completed.fetch_add(1, std::memory_order_release);
    return;
  }
  // Deadline shed at dequeue, before any tree mutation: a request that
  // expired while queued never touches state.
  if (item.deadline_ns != 0 && fleet_.now_ns() > item.deadline_ns) {
    ++deadline_expired;
    shed_item(item);
    return;
  }
  queue_wait.record(fleet_.now_ns() - item.arrival_ns);
  const int b = map.shard_of(item.dst);
  if (b == w_) {
    split.intra_cost += serve(u, map.local_of(item.dst));
    if (fleet_.net.has_replica(w_)) ++replica_reads;
    ++split.intra_requests;
    sojourn.record(fleet_.now_ns() - item.arrival_ns);
    fleet_.completed.fetch_add(1, std::memory_order_release);
  } else {
    // First leg: ascend u to this shard's root, hand the request over to
    // v's shard with the top-tree route priced in.
    split.cross_cost += serve(u, kNoNode);
    ++handovers;
    QueueItem leg;
    leg.src = item.dst;
    leg.arrival_ns = item.arrival_ns;
    leg.pending_top = fleet_.net.top_distance(w_, b);
    if (!deliver(b, leg)) {
      ++cross_shed;
      shed_item(leg);
    }
  }
}

/// Delivers a mailbox leg to `target`'s worker. kBlock: unbounded push,
/// always succeeds. Degradation modes: the target's breaker may shed
/// outright (open or mid-recovery), a full mailbox is retried with
/// deterministic backoff, and exhaustion feeds the breaker. Returns false
/// when the leg was shed (the caller completes it via shed_item).
bool Worker::deliver(int target, const QueueItem& leg) {
  Worker& to = fleet_[target];
  if (!fleet_.degrade) {
    to.inbox.push_mail(leg);
    return true;
  }
  const int state = to.breaker.load(std::memory_order_acquire);
  if (state == kBreakerRecovery) return false;
  if (state == kBreakerOpen) {
    // Half-open: every 16th leg probes the mailbox; one success closes the
    // breaker again.
    if (++probe_clock_ % 16 != 0 || !to.inbox.push_mail(leg)) return false;
    to.close_breaker();
    return true;
  }
  for (int attempt = 0;; ++attempt) {
    if (to.inbox.push_mail(leg)) {
      to.breaker_failures.store(0, std::memory_order_relaxed);
      return true;
    }
    if (attempt >= fleet_.opt.handover_retries) break;
    // Exponential base plus seeded splitmix64 jitter, microseconds-scale so
    // retry exhaustion resolves well under any realistic deadline.
    const std::uint64_t base = 2'000ull << std::min(attempt, 10);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        base + splitmix64_next(rng_) % (base / 2 + 1)));
  }
  if (to.breaker_failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
      fleet_.opt.breaker_threshold) {
    int expect = kBreakerClosed;
    if (to.breaker.compare_exchange_strong(expect, kBreakerOpen))
      ++breaker_trips;
  }
  return false;
}

/// Serves one op on this worker's shard in local ids (v == kNoNode ascends
/// u to the root), logs it while a shard kill is pending, books the serve
/// counters and returns its routing + rotations.
Cost Worker::serve(NodeId u, NodeId v) {
  const ServeResult sr = fleet_.net.serve_local(w_, u, v);
  if (fleet_.log_served) served.push_back({u, v});
  routing += sr.routing_cost;
  rotations += sr.rotations;
  edges += sr.edge_changes;
  return sr.routing_cost + static_cast<Cost>(sr.rotations);
}

/// Shed bookkeeping for an item this worker drops (deadline at dequeue,
/// breaker, retry exhaustion): records its age and completes it, so the
/// quiesce accounting sees every admitted request exactly once.
void Worker::shed_item(const QueueItem& item) {
  shed.record(fleet_.now_ns() - item.arrival_ns);
  fleet_.completed.fetch_add(1, std::memory_order_release);
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
  if (opt_.queue_capacity < 1)
    throw TreeError("ServeFrontend: queue_capacity must be >= 1");
  opt_.schedule.validate();
  if (opt_.queue_policy == QueuePolicy::kDeadline && opt_.deadline_ms <= 0.0)
    throw TreeError("ServeFrontend: kDeadline needs deadline_ms > 0");
  if (opt_.queue_policy != QueuePolicy::kDeadline && opt_.deadline_ms != 0.0)
    throw TreeError(
        "ServeFrontend: deadline_ms requires the kDeadline queue policy");
  if (opt_.admit_rate < 0.0)
    throw TreeError("ServeFrontend: admit_rate must be >= 0");
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
  const std::size_t total = stream.size();
  FrontendResult res;
  ControlPlane plane(net_, opt_.rebalance, opt_.faults, res.sim);
  Fleet fleet(net_, opt_);
  for (int s = 0; s < net_.num_shards(); ++s) fleet.spawn(s);

  std::size_t offered = 0;     // pulled from the schedule (admitted + shed)
  std::size_t dispatched = 0;  // admitted into a queue
  std::size_t cross_dispatched = 0;
  std::uint64_t last_arrival_ns = 0;

  // ---- scripted fault injection (sim/fault.hpp) -----------------------
  // Resume points are run start and the instants after a recovery, a
  // worker kill or an epoch barrier, all quiesced; a static run with a
  // shard kill pending adds one wherever the batch pipeline starts a
  // chunk. Each one snapshots the fleet and clears the workers' served
  // logs while a shard kill is pending, so a log never spans a map change
  // and a replay never spans more than one chunk or epoch.
  auto resume = [&] {
    plane.snapshot_all();
    fleet.log_served = plane.kill_pending();
    for (const auto& worker : fleet.workers) worker->served.clear();
  };
  // Fires every event due once `offered` requests were offered, admitted
  // or shed. A shard kill quiesces the (drained, handovers included)
  // pipeline, then the plane recovers the shard: promotion, or restore
  // plus a replay of the log its worker kept.
  auto fire_due = [&] {
    while (plane.next_fault() != nullptr &&
           plane.next_fault()->at_request == offered) {
      const FaultEvent ev = plane.take_fault();
      Worker& worker = fleet[ev.shard];
      switch (ev.kind) {
        case FaultKind::kShardKill:
          // Open the recovery breaker first so in-flight cross legs shed
          // instead of serving into the doomed shard (degradation modes;
          // kBlock stays lossless and drains them).
          if (fleet.degrade)
            worker.breaker.store(kBreakerRecovery, std::memory_order_release);
          fleet.quiesce(dispatched);
          plane.recover(ev.shard, worker.served);
          if (fleet.degrade) worker.close_breaker();
          resume();
          break;
        case FaultKind::kWorkerKill: {
          // The thread dies, the shard's data survives: retire the worker
          // at the quiesce barrier and respawn it (same inbox, same
          // accumulated counters).
          fleet.quiesce(dispatched);
          const Clock::time_point t0 = Clock::now();
          fleet.retire(ev.shard);
          fleet.spawn(ev.shard);
          plane.note_recovery(t0);
          resume();
          break;
        }
        case FaultKind::kQueuePressure:
          // No barrier: the shard's inbox bound collapses mid-flight and
          // the admission policy has to cope until the next quiesce (a
          // barrier or a resume point) restores it.
          worker.inbox.set_capacity(
              std::max<std::size_t>(1, opt_.queue_capacity / 8));
          break;
      }
    }
  };
  resume();

  // The epoch barrier: drain the pipeline, then let the plane measure,
  // plan and apply — migrations and, when configured, the full shard
  // lifecycle — and reshape the fleet to match: a split's new shard gets
  // a worker, a merge retires the last one (shard ids above the vacated
  // one shifted down, and worker w serves shard w). Breakers reset: the
  // fleet just proved it can drain, so congestion-tripped breakers
  // half-open wholesale. The dispatcher keeps the arrival clock running,
  // so this pause is charged to every request that arrives during it. It
  // ends at a resume point, so a later replay never spans it.
  auto epoch_barrier = [&] {
    fleet.quiesce(dispatched);
    CostSplit served;
    for (const auto& worker : fleet.workers) {
      if (fleet.degrade) worker->close_breaker();
      served += worker->split;
    }
    const BarrierOutcome out = plane.barrier(served, 0);
    if (out.split_to >= 0) fleet.spawn(out.split_to);
    if (out.merged_from >= 0) fleet.retire(net_.num_shards());
    if (out.changed) ++res.route_epochs;
    resume();
  };

  // ---- admission control ----------------------------------------------
  const bool throttled = opt_.admit_rate > 0.0;
  double tokens = kAdmitBurst;
  std::uint64_t bucket_clock = 0;  // last intended-arrival refill instant
  const std::uint64_t deadline_budget_ns =
      opt_.queue_policy == QueuePolicy::kDeadline
          ? static_cast<std::uint64_t>(opt_.deadline_ms * 1e6)
          : 0;
  // Admission-time sheds are recorded by the dispatcher itself.
  auto shed_admission = [&](std::uint64_t arrival_ns) {
    res.shed.record(fleet.now_ns() - arrival_ns);
  };

  std::vector<Request> chunk(std::min(total, kStreamChunkRequests));
  while (true) {
    const std::size_t got = stream.fill(chunk);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      fire_due();
      // Pace to the arrival schedule: sleep for coarse gaps, spin out the
      // last stretch (sleep_until wakes late by scheduler quanta, which
      // would throttle multi-million-req/s schedules).
      const std::uint64_t due = schedule.next();
      last_arrival_ns = due;
      if (due > 0) {
        constexpr std::uint64_t kSpinWindowNs = 50'000;
        std::uint64_t now = fleet.now_ns();
        if (due > now + kSpinWindowNs)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinWindowNs));
        while (fleet.now_ns() < due) {
          // busy-wait: the dispatcher is the clock of the experiment
        }
      }
      ++offered;
      // Token bucket, refilled from the intended-arrival clock: the
      // admit/shed pattern is a deterministic function of the schedule,
      // not of wall-clock jitter.
      if (throttled) {
        tokens = std::min(kAdmitBurst,
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
        if (fleet.now_ns() > deadline_ns) {  // dead on arrival (backpressure)
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
      ShardInbox& box = fleet[a].inbox;
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
        if (dispatched % plane.epoch_requests() == 0 && dispatched < total)
          epoch_barrier();
      } else if (fleet.log_served && dispatched % kStreamChunkRequests == 0 &&
                 dispatched < total) {
        fleet.quiesce(dispatched);
        resume();
      }
    }
  }
  // An event at the stream's length fires after the last request, as it
  // does in the batch pipeline.
  fire_due();

  res.sim.requests = offered;
  if (offered > 0 && last_arrival_ns > 0)
    res.offered_rate = static_cast<double>(offered) /
                       (static_cast<double>(last_arrival_ns) / 1e9);

  fleet.quiesce(dispatched);
  res.elapsed_seconds = static_cast<double>(fleet.now_ns()) / 1e9;
  fleet.join();

  // ---- aggregation ----------------------------------------------------
  for (const auto& worker : fleet.workers) {
    const Worker& w = *worker;
    res.sim.routing_cost += w.routing;
    res.sim.rotation_count += w.rotations;
    res.sim.edge_changes += w.edges;
    res.sim.replica_reads += w.replica_reads;
    res.handovers += w.handovers;
    res.sim.reordered_requests += w.reordered;
    res.sim.deadline_expired += w.deadline_expired;
    res.sim.cross_shed += w.cross_shed;
    res.sim.breaker_trips += w.breaker_trips;
    res.sojourn.merge(w.sojourn);
    res.queue_wait.merge(w.queue_wait);
    res.shed.merge(w.shed);
  }
  res.sim.shed_requests = res.sim.shed_queue_full + res.sim.shed_throttled +
                          res.sim.deadline_expired + res.sim.cross_shed;
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
  return res;
}

}  // namespace san
