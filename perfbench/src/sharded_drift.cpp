// sharded-drift: the batch pipeline under drifting traffic. One caller
// feeds phase-changing elephant pairs through run_trace_sharded_stream on
// a hash-partitioned ShardedNetwork (k = 3, n = 10^5, S = 8) whose shards
// drain concurrently on the Executor, with hot-pair rebalancing,
// split/merge watermarks and one early scripted shard kill that recovers
// by snapshot restore plus tail replay.
//
// The traced run cannot see inside run_trace_sharded_stream, so it drives
// the same pipeline through the public entry points (partition_trace,
// per-shard serve/access on the Executor, top_distance combine,
// RebalanceState, apply_migrations, split/merge, snapshot/restore) and must
// reproduce the untraced run's SimResult counters bit for bit. The traced
// run also serves the head of the trace open-loop through ServeFrontend on
// the same fleet shape, so the per-request threaded path is measured too.
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/parallel.hpp"
#include "sim/fault.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace san;

struct Sizes {
  int n;
  int k;
  int shards;
  std::size_t m;
  std::size_t epoch;
  int phases;
  double frontend_rate;    ///< open-loop pass: offered requests/s
  std::size_t frontend_m;  ///< open-loop pass: requests from the head
};

Sizes sizes(const RunArgs& a) {
  return a.tiny ? Sizes{2000, 3, 4, 40000, 2000, 4, 50000, 5000}
                : Sizes{100000, 3, 8, 2000000, 16384, 16, 100000, 200000};
}

RebalanceConfig rebalance_config(const Sizes& z) {
  RebalanceConfig c;
  c.policy = RebalancePolicy::kHotPair;
  c.epoch_requests = z.epoch;
  // A fixed colocation price: the measured one can read ~0 on some seeds
  // and park the rebalancer for the whole run, which splits the seeds into
  // two populations with different costs and throughput.
  c.cross_penalty = 4.0;
  // Loose enough that lifecycle fires a handful of times per run instead
  // of thrashing split/merge every epoch.
  c.split_watermark = 4.0;
  c.merge_watermark = 0.3;
  c.max_shards = z.shards + 2;
  c.min_shards = z.shards - 2;
  return c;
}

/// One kill of an unreplicated shard inside the first chunk: snapshot
/// restore + replay. Every chunk drained while a kill is pending starts
/// with a snapshot of the whole fleet, so a later kill would make
/// snapshotting dominate the run.
FaultPlan fault_plan(const Sizes& z) {
  FaultPlan p;
  p.kills = {{z.epoch / 2, z.shards / 2, FaultKind::kShardKill}};
  return p;
}

int drain_threads() { return std::min(2, resolve_threads(0)); }

using Counters = std::array<Cost, 17>;

Counters counters(const SimResult& r) {
  return {r.routing_cost,     r.rotation_count,
          r.edge_changes,     r.cross_shard,
          static_cast<Cost>(r.requests), r.rebalance_epochs,
          r.migrations,       r.migration_cost,
          r.shard_splits,     r.shard_merges,
          r.lifecycle_cost,   r.final_shards,
          r.faults_injected,  r.recovery_replayed,
          r.recovery_cost,    r.replica_reads,
          r.shed_requests};
}

/// Replays a trace and timestamps every pull: the pipeline pulls its next
/// chunk only after the previous one drained and its barrier finished, so
/// pull-to-pull is the time of one chunk with its barrier and recovery.
class PullClock final : public RequestStream {
 public:
  explicit PullClock(const Trace& trace) : trace_(trace) {}
  int n() const override { return trace_.n; }
  std::size_t size() const override { return trace_.size(); }
  std::size_t fill(std::span<Request> out) override {
    pulls_.push_back(Clock::now());
    const std::size_t got = std::min(out.size(), trace_.size() - next_);
    std::copy_n(trace_.requests.begin() + static_cast<std::ptrdiff_t>(next_),
                got, out.begin());
    next_ += got;
    return got;
  }
  /// Records the run from `start` to `end` as chunks of `best`, cut at
  /// every pull.
  void cycles(Clock::time_point start, Clock::time_point end,
              BestTimes& best) const {
    Clock::time_point from = start;
    for (std::size_t i = 0; i <= pulls_.size(); ++i) {
      const Clock::time_point to = i < pulls_.size() ? pulls_[i] : end;
      best.record(i, seconds_between(from, to));
      from = to;
    }
  }

 private:
  const Trace& trace_;
  std::size_t next_ = 0;
  std::vector<Clock::time_point> pulls_;
};

struct ShardDrain {
  Cost routing = 0, rotations = 0, edge_changes = 0, ascent_cost = 0;
  double busy_s = 0;
  LayerAcc acc;
};

/// Serves one shard's queue in FIFO order, as the engine's drain does,
/// timing each op into the shard's own accumulator.
void drain_shard(KArySplayNet& shard, const std::vector<ShardOp>& ops,
                 ShardDrain& d) {
  LayerAcc& acc = d.acc;
  Sampler path_sample(kPathSampleEvery);
  const auto t0 = Clock::now();
  for (const ShardOp& op : ops) {
    ServeResult s;
    if (path_sample() && !op.is_ascent() && op.src != op.dst) {
      const auto a = Clock::now();
      const PathInfo p = shard.tree().path_info(op.src, op.dst);
      const auto b = Clock::now();
      acc.path_ns.record(ns_between(a, b));
      acc.path_hops += static_cast<std::uint64_t>(p.distance);
      acc.depth_sum += static_cast<std::uint64_t>(shard.tree().depth(op.src) +
                                                  shard.tree().depth(op.dst));
      s = shard.serve(op.src, op.dst);
    } else {
      const auto a = Clock::now();
      s = op.is_ascent() ? shard.access(op.src) : shard.serve(op.src, op.dst);
      const auto b = Clock::now();
      acc.serve_ns.record(ns_between(a, b));
      acc.serve_cost += static_cast<std::uint64_t>(s.routing_cost + s.rotations);
      acc.serve_rotations += static_cast<std::uint64_t>(s.rotations);
    }
    d.routing += s.routing_cost;
    d.rotations += s.rotations;
    d.edge_changes += s.edge_changes;
    if (op.is_ascent()) d.ascent_cost += s.routing_cost + s.rotations;
  }
  d.busy_s = seconds_between(t0, Clock::now());
  acc.requests += ops.size();
  acc.hops += static_cast<std::uint64_t>(d.routing);
  acc.rotations += static_cast<std::uint64_t>(d.rotations);
  acc.edge_changes += static_cast<std::uint64_t>(d.edge_changes);
}

struct ChunkSplit {
  Cost cross_cost = 0, intra_cost = 0;
  std::size_t cross_requests = 0, intra_requests = 0;
  void add(const ChunkSplit& o) {
    cross_cost += o.cross_cost;
    intra_cost += o.intra_cost;
    cross_requests += o.cross_requests;
    intra_requests += o.intra_requests;
  }
};

/// What the traced reps measured, summed over all of them.
struct Tally {
  SpanLog spans;
  BestTimes chunks;  ///< each chunk with its barrier
  LayerAcc acc;
  LatencyHistogram plan_ns;
  double busy_s = 0, busy_max_sum_s = 0, busy_mean_sum_s = 0;
  std::size_t drains = 0, migrate_batches = 0, snapshot_bytes = 0;
};

/// The traced pipeline: run_trace_sharded_stream's adaptive path with
/// FIFO drains, no replicas and scripted shard kills, rebuilt from public
/// entry points and timed at every layer boundary.
class TracedPipeline {
 public:
  TracedPipeline(ShardedNetwork& net, const RebalanceConfig& cfg,
                 const FaultPlan& faults, int threads, Tally& tally)
      : net_(net), cfg_(cfg), kills_(faults.kills), threads_(threads),
        t_(tally), spans_(tally.spans) {}

  SimResult run(const Trace& trace) {
    const std::size_t total = trace.size();
    RebalanceState state(cfg_);
    const RebalanceCostHints base_hints = net_.cost_hints();
    const double decay = cfg_.window_decay;
    double cross_cost = 0, intra_cost = 0, cross_reqs = 0, intra_reqs = 0;
    const int run_span = spans_.open("run");
    for (std::size_t at = 0, i = 0; at < total; at += cfg_.epoch_requests, ++i) {
      const std::size_t got = std::min(cfg_.epoch_requests, total - at);
      const std::span<const Request> chunk(trace.requests.data() + at, got);
      const auto c0 = Clock::now();
      const int chunk_span = spans_.open("chunk", run_span);
      snapshot_all(chunk_span);
      const ChunkSplit split = drain_with_faults(chunk, res_.requests, chunk_span);
      res_.requests += got;
      if (res_.requests >= total || got < cfg_.epoch_requests) {
        spans_.close(chunk_span);
        t_.chunks.record(i, seconds_between(c0, Clock::now()));
        break;
      }
      cross_cost = cross_cost * decay + static_cast<double>(split.cross_cost);
      intra_cost = intra_cost * decay + static_cast<double>(split.intra_cost);
      cross_reqs = cross_reqs * decay + static_cast<double>(split.cross_requests);
      intra_reqs = intra_reqs * decay + static_cast<double>(split.intra_requests);

      int sp = spans_.open("barrier.observe", chunk_span);
      for (const Request& r : chunk) state.observe(r, net_.map());
      spans_.close(sp);
      RebalanceCostHints hints = base_hints;
      if (cross_reqs > 0.0 && intra_reqs > 0.0)
        hints.cross_penalty =
            std::max(0.0, cross_cost / cross_reqs - intra_cost / intra_reqs);

      sp = spans_.open("barrier.plan", chunk_span);
      const auto p0 = Clock::now();
      RebalancePlan plan = state.epoch(net_.map(), hints);
      t_.plan_ns.record(ns_between(p0, Clock::now()));
      spans_.close(sp);
      if (plan.triggered) {
        ++res_.rebalance_epochs;
        if (!plan.migrations.empty()) {
          sp = spans_.open("barrier.migrate", chunk_span);
          const MigrationResult applied =
              net_.apply_migrations(std::move(plan.migrations));
          spans_.close(sp);
          ++t_.migrate_batches;
          res_.migrations += applied.migrated;
          res_.migration_cost += applied.total_cost();
        }
      }
      if (plan.split_shard >= 0 &&
          net_.map().shard_size(plan.split_shard) >= 2) {
        sp = spans_.open("barrier.split", chunk_span);
        const LifecycleResult lr = net_.split_shard(plan.split_shard);
        spans_.close(sp);
        ++res_.shard_splits;
        res_.lifecycle_cost += lr.total_cost();
      } else if (plan.merge_from >= 0) {
        sp = spans_.open("barrier.merge", chunk_span);
        const LifecycleResult lr =
            net_.merge_shards(plan.merge_into, plan.merge_from);
        spans_.close(sp);
        ++res_.shard_merges;
        res_.lifecycle_cost += lr.total_cost();
      }
      spans_.close(chunk_span);
      t_.chunks.record(i, seconds_between(c0, Clock::now()));
    }
    spans_.close(run_span);
    res_.final_shards = net_.num_shards();
    return res_;
  }

 private:
  bool pending() const { return next_kill_ < kills_.size(); }

  void snapshot_all(int parent) {
    if (!pending()) return;
    const int sp = spans_.open("recovery.snapshot", parent);
    snaps_.resize(static_cast<std::size_t>(net_.num_shards()));
    for (int s = 0; s < net_.num_shards(); ++s) {
      snaps_[static_cast<std::size_t>(s)] = net_.snapshot_shard(s);
      t_.snapshot_bytes += snaps_[static_cast<std::size_t>(s)].size();
    }
    spans_.close(sp);
  }

  /// Splits the chunk at scripted kills exactly like the engine's fault
  /// injector: drain up to the kill, recover, re-snapshot, continue.
  ChunkSplit drain_with_faults(std::span<const Request> chunk,
                               std::size_t served_before, int parent) {
    ChunkSplit total;
    std::size_t done = 0;
    while (pending()) {
      const FaultEvent& kill = kills_[next_kill_];
      if (kill.at_request > served_before + chunk.size()) break;
      const std::size_t rel = kill.at_request - served_before;
      const std::span<const Request> tail = chunk.subspan(done, rel - done);
      if (!tail.empty()) total.add(drain_chunk(tail, parent));
      recover(kill.shard, tail, parent);
      ++next_kill_;
      snapshot_all(parent);
      done = rel;
    }
    if (done < chunk.size()) total.add(drain_chunk(chunk.subspan(done), parent));
    return total;
  }

  void recover(int shard, std::span<const Request> tail, int parent) {
    const int sp = spans_.open("recovery.restore", parent);
    ++res_.faults_injected;
    net_.restore_shard(shard, snaps_[static_cast<std::size_t>(shard)]);
    const PartitionedTrace pt = partition_trace(tail, net_.map());
    ShardDrain replay;
    drain_shard(net_.shard(shard), pt.ops[static_cast<std::size_t>(shard)],
                replay);
    res_.recovery_replayed +=
        static_cast<Cost>(pt.ops[static_cast<std::size_t>(shard)].size());
    res_.recovery_cost += replay.routing + replay.rotations;
    spans_.close(sp);
  }

  ChunkSplit drain_chunk(std::span<const Request> chunk, int parent) {
    int sp = spans_.open("partition", parent);
    const PartitionedTrace pt = partition_trace(chunk, net_.map());
    spans_.close(sp);
    const int S = net_.num_shards();

    std::vector<ShardDrain> part(static_cast<std::size_t>(S));
    sp = spans_.open("drain", parent);
    parallel_for(0, S, threads_, [&](long s) {
      drain_shard(net_.shard(static_cast<int>(s)),
                  pt.ops[static_cast<std::size_t>(s)],
                  part[static_cast<std::size_t>(s)]);
    });
    spans_.close(sp);

    sp = spans_.open("combine", parent);
    ChunkSplit split;
    Cost all = 0, ascents = 0;
    double max_busy = 0, sum_busy = 0;
    for (const ShardDrain& d : part) {
      res_.routing_cost += d.routing;
      res_.rotation_count += d.rotations;
      res_.edge_changes += d.edge_changes;
      all += d.routing + d.rotations;
      ascents += d.ascent_cost;
      max_busy = std::max(max_busy, d.busy_s);
      sum_busy += d.busy_s;
    }
    split.cross_cost = ascents;
    for (int a = 0; a < S; ++a)
      for (int b = 0; b < S; ++b) {
        const std::size_t pairs =
            pt.cross_pairs[static_cast<std::size_t>(a) *
                               static_cast<std::size_t>(S) +
                           static_cast<std::size_t>(b)];
        if (pairs != 0) {
          const Cost legs = static_cast<Cost>(pairs) * net_.top_distance(a, b);
          res_.routing_cost += legs;
          split.cross_cost += legs;
        }
      }
    split.intra_cost = all - ascents;
    split.cross_requests = pt.cross_requests;
    split.intra_requests = pt.total_requests - pt.cross_requests;
    res_.cross_shard += static_cast<Cost>(pt.cross_requests);
    net_.note_cross_served(static_cast<Cost>(pt.cross_requests));
    spans_.close(sp);

    for (const ShardDrain& d : part) t_.acc.merge(d.acc);
    t_.busy_s += sum_busy;
    t_.busy_max_sum_s += max_busy;
    t_.busy_mean_sum_s += sum_busy / S;
    ++t_.drains;
    return split;
  }

  ShardedNetwork& net_;
  const RebalanceConfig& cfg_;
  std::vector<FaultEvent> kills_;
  std::size_t next_kill_ = 0;
  std::vector<std::string> snaps_;
  int threads_;
  Tally& t_;
  SpanLog& spans_;
  SimResult res_;
};

ShardedNetwork fresh_network(const Sizes& z) {
  return ShardedNetwork::balanced(z.k, z.n, z.shards, ShardPartition::kHash);
}

void check_fleet(const ShardedNetwork& net, int n, Report& report) {
  bool valid = true;
  long nodes = 0;
  for (int s = 0; s < net.num_shards(); ++s) {
    valid = valid && !net.shard(s).tree().validate().has_value();
    nodes += net.map().shard_size(s);
  }
  report.check(valid, "sharded-drift: every shard passes validate()");
  report.check(nodes == n, "sharded-drift: shard sizes sum to n");
}

/// The open-loop serving path over a fresh fleet of the same shape: Poisson
/// arrivals at a fixed absolute rate below saturation drive ServeFrontend
/// (one worker per shard plus the dispatcher, kShed) over the head of the
/// trace. Latency is sojourn from each request's intended arrival. The
/// frontend's internals are not visible from outside, so its per-layer
/// numbers are the FrontendResult histograms and counters themselves, and
/// the dispatcher's lateness shows only as drain_tail_ms.
void frontend_pass(const Sizes& z, const Trace& trace, std::uint64_t seed,
                   Report& report) {
  Trace head;
  head.n = trace.n;
  head.requests.assign(trace.requests.begin(),
                       trace.requests.begin() +
                           static_cast<std::ptrdiff_t>(z.frontend_m));
  const std::vector<std::uint64_t> arrivals =
      gen_arrival_times(ArrivalKind::kPoisson, z.frontend_rate, z.frontend_m,
                        seed ^ 0x9E3779B97F4A7C15ULL);
  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kShed;
  // Deep enough that only a worker stall of ~80 ms sheds at this rate:
  // below saturation no request should be refused, yet a stall is still
  // charged to latency from the intended arrival.
  opt.queue_capacity = 8192;
  ShardedNetwork net = fresh_network(z);
  const FrontendResult r = ServeFrontend(net, opt).run(head, arrivals);

  const std::uint64_t served = r.sojourn.count();
  const auto shed = static_cast<std::uint64_t>(r.sim.shed_requests);
  report.check(r.sim.requests == z.frontend_m && served + shed == z.frontend_m,
               "sharded-drift: frontend served + shed == offered");
  check_fleet(net, z.n, report);
  report.attempt(r.sim.requests, shed);

  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  const double m = static_cast<double>(z.frontend_m);
  report.metric("sim.frontend.sojourn_p50_us", us(r.sojourn.p50()), "us");
  report.metric("sim.frontend.sojourn_p99_us", us(r.sojourn.p99()), "us");
  report.metric("sim.frontend.queue_wait_p50_us", us(r.queue_wait.p50()), "us");
  report.metric("sim.frontend.queue_wait_p99_us", us(r.queue_wait.p99()), "us");
  report.metric("sim.frontend.drain_tail_ms",
                (r.elapsed_seconds - static_cast<double>(arrivals.back()) / 1e9) *
                    1e3,
                "ms");
  report.metric("sim.frontend.handovers_per_req",
                served ? static_cast<double>(r.handovers) /
                             static_cast<double>(served)
                       : 0.0,
                "count");
  report.metric("sim.frontend.forwards", static_cast<double>(r.forwards),
                "count");
  report.metric("sim.frontend.shed_queue_full",
                static_cast<double>(r.sim.shed_queue_full), "count");
  report.metric("sim.frontend.shed_cross", static_cast<double>(r.sim.cross_shed),
                "count");
  report.metric("sim.frontend.queue_full_blocks",
                static_cast<double>(r.sim.queue_full_blocks), "count");
  report.metric("sim.frontend.breaker_trips",
                static_cast<double>(r.sim.breaker_trips), "count");
  report.metric("sim.frontend.shed_age_p99_us", us(r.shed.p99()), "us");
  report.metric("sim.frontend.shed_frac", static_cast<double>(shed) / m,
                "fraction");
}

}  // namespace

std::string sharded_drift_threads() {
  return "caller=1 executor=" + std::to_string(drain_threads()) +
         " open_loop_pass=dispatcher+" +
         std::to_string(sizes(RunArgs{}).shards) + "_workers";
}

void run_sharded_drift(const RunArgs& args, Report& report) {
  const Sizes z = sizes(args);
  const RebalanceConfig cfg = rebalance_config(z);
  const FaultPlan faults = fault_plan(z);
  const int threads = drain_threads();

  Trace trace;
  double generate_s = 0;
  std::optional<SimResult> first;
  bool deterministic = true;
  BestTimes best;
  std::optional<ShardedNetwork> last;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // Set-ups of ~0.15 s.
  const double setup_s = set_up_and_repeat(
      budget, threads, 12,
      [&] {
        trace = Trace{};  // free the previous trace before building the next
        const auto t0 = Clock::now();
        trace = gen_phase_elephants(z.n, z.m, z.phases, args.seed);
        const auto t1 = Clock::now();
        const ShardedNetwork net = fresh_network(z);
        const auto t2 = Clock::now();
        generate_s = seconds_between(t0, t1);
        return seconds_between(t0, t2);
      },
      [&] {
        last.reset();
        last.emplace(fresh_network(z));
        ShardedRunOptions opt;
        opt.threads = threads;
        opt.rebalance = &cfg;
        opt.faults = &faults;
        PullClock stream(trace);
        const auto t0 = Clock::now();
        const SimResult r = run_trace_sharded_stream(*last, stream, opt);
        stream.cycles(t0, Clock::now(), best);
        if (!first) first = r;
        deterministic = deterministic && counters(r) == counters(*first);
        report.attempt(r.requests, static_cast<std::uint64_t>(r.shed_requests));
      });
  check_fleet(*last, z.n, report);
  report.check(deterministic,
               "sharded-drift: counters identical across reps of one seed");
  report.check(first->shed_requests == 0,
               "sharded-drift: shed_frac == 0 (closed loop)");
  report.check(first->faults_injected == 1,
               "sharded-drift: the scripted kill fired");

  if (!args.trace) {
    report.metric("serve_rps", best.rps(z.m), "req/s");
    report.metric("cost_per_req",
                  static_cast<double>(first->grand_total_cost()) /
                      static_cast<double>(z.m),
                  "cost/req");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced reps; the self-test's negative case corrupts the reference.
  Counters want = counters(*first);
  if (args.tamper) ++want[0];
  Tally t;
  std::size_t rounds = 0;
  SimResult tr;
  bool bit_match = true;
  const int traced_reps = repeat_for(args.seconds / 2, threads, [&] {
    ShardedNetwork net = fresh_network(z);
    TracedPipeline pipe(net, cfg, faults, threads, t);
    const std::size_t r0 = Executor::instance().rounds_dispatched();
    tr = pipe.run(trace);
    rounds += Executor::instance().rounds_dispatched() - r0;
    bit_match = bit_match && counters(tr) == want;
    check_fleet(net, z.n, report);
    report.attempt(tr.requests);
  });
  if (!args.spans_dir.empty())
    t.spans.write(args.spans_dir + "/sharded-drift-seed" +
                  std::to_string(args.seed) + ".json");
  report.check(bit_match,
               "sharded-drift: traced pipeline bit-matches the SimResult "
               "counters of run_trace_sharded_stream");

  const double per = 1.0 / traced_reps;
  const double m = static_cast<double>(z.m);
  const auto safe = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto span_ms = [&](const char* name) {
    return t.spans.total_ms(name) * per;
  };
  const double wall_ms = span_ms("drain");
  const double busy_ms = t.busy_s * 1e3 * per;
  report_core_layers(report, t.acc);
  report.metric("core.executor.rounds", static_cast<double>(rounds) * per,
                "count");
  report.metric("core.executor.round_us",
                safe(wall_ms * 1e3, static_cast<double>(rounds) * per), "us");
  report.metric("workload.generate.ns_per_req", generate_s * 1e9 / m, "ns");
  report.metric("workload.partition.ns_per_req",
                span_ms("partition") * 1e6 / m, "ns");
  report.metric("workload.rebalance.observe.ns_per_req",
                span_ms("barrier.observe") * 1e6 / m, "ns");
  report.metric("workload.rebalance.plan_ms_p50",
                static_cast<double>(t.plan_ns.p50()) / 1e6, "ms");
  report.metric("workload.rebalance.plan_ms_max",
                static_cast<double>(t.plan_ns.max()) / 1e6, "ms");
  report.metric("sim.drain.wall_ms", wall_ms, "ms");
  report.metric("sim.drain.busy_ms", busy_ms, "ms");
  report.metric("sim.drain.imbalance",
                safe(t.busy_max_sum_s, t.busy_mean_sum_s), "ratio");
  report.metric("sim.drain.parallel_eff", safe(busy_ms, wall_ms * threads),
                "ratio");
  report.metric("sim.combine.us",
                safe(t.spans.total_ms("combine") * 1e3,
                     static_cast<double>(t.drains)),
                "us");
  report.metric("sim.barrier.migrate_ms", span_ms("barrier.migrate"), "ms");
  report.metric("sim.barrier.split_ms", span_ms("barrier.split"), "ms");
  report.metric("sim.barrier.merge_ms", span_ms("barrier.merge"), "ms");
  report.metric("sim.barrier.migrate_batches",
                static_cast<double>(t.migrate_batches) * per, "count");
  report.metric("sim.barrier.splits", static_cast<double>(tr.shard_splits),
                "count");
  report.metric("sim.barrier.merges", static_cast<double>(tr.shard_merges),
                "count");
  report.metric("sim.cross_fraction",
                safe(static_cast<double>(tr.cross_shard), m), "fraction");
  report.metric("sim.recovery.snapshot_ms", span_ms("recovery.snapshot"),
                "ms");
  report.metric("sim.recovery.restore_ms", span_ms("recovery.restore"), "ms");
  report.metric("sim.recovery.replay_ops",
                static_cast<double>(tr.recovery_replayed), "count");
  report.metric("io.snapshot.bytes",
                static_cast<double>(t.snapshot_bytes) * per, "bytes");
  report.metric("trace.spans", static_cast<double>(t.spans.size()) * per,
                "count");
  report_trace_overhead(report, z.m, best, t.chunks);
  frontend_pass(z, trace, args.seed, report);
}

}  // namespace perfbench
