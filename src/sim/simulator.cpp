#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "workload/rebalance.hpp"

namespace san {
namespace {

/// One shard's drain totals plus the ascent-op share, which the adaptive
/// path uses to measure what a cross-shard request actually costs.
struct ShardDrain {
  SimResult sim;
  Cost ascent_cost = 0;  ///< routing + rotations of the ascent ops alone
};

/// Serves one shard's op queue in the scheduled order. Ops are local-id
/// pairs; an ascent op (cross-shard half-request) splays its node to the
/// shard root and is charged the pre-adjustment depth — exactly what
/// ShardedNetwork::serve does inline, so pipeline and per-request paths
/// cannot diverge. Under FIFO the queue is served untouched; kLocality
/// reorders within windows of this shard's own queue (shards share
/// nothing, so the sequential/concurrent bit-identity is preserved).
///
/// `replica` (null when the shard is unreplicated) is the shard's
/// lockstep copy: intra ops are answered from it — bit-identical results,
/// costs charged once, counted as replica reads — and every op is
/// mirrored so primary and replica never diverge. Only this drain call
/// touches the pair, so the share-nothing determinism argument is intact.
ShardDrain drain_shard(KArySplayNet& shard, KArySplayNet* replica,
                       std::vector<ShardOp>& ops,
                       const ScheduleConfig& sched) {
  ShardDrain res;
  const auto serve_one = [&](const ShardOp& op) {
    ServeResult s;
    if (op.is_ascent()) {
      s = shard.access(op.src);
      if (replica != nullptr) replica->access(op.src);
    } else if (replica != nullptr) {
      s = replica->serve(op.src, op.dst);
      shard.serve(op.src, op.dst);
      ++res.sim.replica_reads;
    } else {
      s = shard.serve(op.src, op.dst);
    }
    res.sim.routing_cost += s.routing_cost;
    res.sim.rotation_count += s.rotations;
    res.sim.edge_changes += s.edge_changes;
    if (op.is_ascent())
      res.ascent_cost += s.routing_cost + static_cast<Cost>(s.rotations);
  };
  if (!sched.reorders()) {
    for (const ShardOp& op : ops) serve_one(op);
    return res;
  }
  LocalityScheduler scheduler(sched);
  scheduler.run(
      shard.tree(), std::span<ShardOp>(ops),
      [](const ShardOp& op) { return ScheduleEndpoints{op.src, op.dst}; },
      serve_one);
  res.sim.reordered_requests = scheduler.reordered();
  return res;
}

}  // namespace

SimResult run_trace(AnyNetwork& net, const Trace& trace,
                    const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace(n, trace, sched); });
}

SimResult run_trace_stream(AnyNetwork& net, RequestStream& stream,
                           const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace_stream(n, stream, sched); });
}

SimResult run_trace_static(const KAryTree& tree, const Trace& trace,
                           const ScheduleConfig& sched) {
  sched.validate();
  SimResult res;
  res.schedule = sched.policy;
  if (!sched.reorders()) {
    for (const Request& r : trace.requests) {
      res.routing_cost += serve_on_static_tree(tree, r.src, r.dst).routing_cost;
      ++res.requests;
    }
    return res;
  }
  // A static tree never rotates, so total routing cost is invariant under
  // any permutation — locality scheduling here is purely a cache/MLP play
  // (tests assert the cost tie).
  std::vector<Request> buf = trace.requests;
  LocalityScheduler scheduler(sched);
  scheduler.run(
      tree, std::span<Request>(buf),
      [](const Request& r) { return ScheduleEndpoints{r.src, r.dst}; },
      [&](const Request& r) {
        res.routing_cost +=
            serve_on_static_tree(tree, r.src, r.dst).routing_cost;
        ++res.requests;
      });
  res.reordered_requests = scheduler.reordered();
  return res;
}

namespace {

/// Cross/intra split of one drained chunk, feeding the measured migration
/// cost model: what did a cross-shard request cost here, against an
/// intra-shard one?
struct ChunkSplit {
  Cost cross_cost = 0;  ///< ascent halves + top-level legs
  Cost intra_cost = 0;  ///< everything else
  std::size_t cross_requests = 0;
  std::size_t intra_requests = 0;
};

/// Feeds one chunk into the rebalance window. It reads only the map, which
/// no drain changes, so it can run as one more task of a drain round.
struct ObserveTask {
  RebalanceState* state = nullptr;
  std::span<const Request> requests;

  void run(const ShardMap& map) const {
    for (const Request& r : requests) state->observe(r, map);
  }
};

/// Serves one contiguous slice of the trace through the batched pipeline
/// and accumulates its costs into `res`. Both the static path (one chunk =
/// the whole trace) and the rebalancing path (one chunk per epoch) go
/// through here, so their drains cannot diverge. A non-null `observe` runs
/// in the same round, after the drains in sequential mode.
ChunkSplit drain_chunk(ShardedNetwork& net, std::span<const Request> chunk,
                       const ShardedRunOptions& opt, SimResult& res,
                       const ObserveTask* observe) {
  PartitionedTrace pt = partition_trace(chunk, net.map());
  const int S = net.num_shards();

  // One result slot and one queue per shard: workers share nothing, so the
  // drain is deterministic regardless of scheduling (locality reordering
  // included — it permutes each shard's own queue deterministically).
  std::vector<ShardDrain> partial(static_cast<std::size_t>(S));
  const auto drain = [&](int s) {
    partial[static_cast<std::size_t>(s)] =
        drain_shard(net.shard(s), net.replica_mut(s),
                    pt.ops[static_cast<std::size_t>(s)], opt.schedule);
  };
  if (opt.sequential) {
    for (int s = 0; s < S; ++s) drain(s);
    if (observe != nullptr) observe->run(net.map());
  } else {
    // Longest queue first and the observe task last: the round lasts as
    // long as the task that starts last.
    std::vector<int> order(static_cast<std::size_t>(S));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const std::size_t qa = pt.ops[static_cast<std::size_t>(a)].size();
      const std::size_t qb = pt.ops[static_cast<std::size_t>(b)].size();
      return qa != qb ? qa > qb : a < b;
    });
    parallel_for(0, S + (observe != nullptr ? 1 : 0), opt.threads,
                 [&](long i) {
                   if (i < S)
                     drain(order[static_cast<std::size_t>(i)]);
                   else
                     observe->run(net.map());
                 });
  }

  // Combine in shard index order (fixed, mode-independent): per-shard sums
  // plus the static top-level legs of every cross-shard request.
  ChunkSplit split;
  Cost total = 0, ascents = 0;
  for (int s = 0; s < S; ++s) {
    const ShardDrain& p = partial[static_cast<std::size_t>(s)];
    res.routing_cost += p.sim.routing_cost;
    res.rotation_count += p.sim.rotation_count;
    res.edge_changes += p.sim.edge_changes;
    res.reordered_requests += p.sim.reordered_requests;
    res.replica_reads += p.sim.replica_reads;
    total += p.sim.routing_cost + p.sim.rotation_count;
    ascents += p.ascent_cost;
  }
  split.cross_cost = ascents;
  for (int a = 0; a < S; ++a)
    for (int b = 0; b < S; ++b) {
      const std::size_t pairs =
          pt.cross_pairs[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(S) +
                         static_cast<std::size_t>(b)];
      if (pairs != 0) {
        const Cost legs = static_cast<Cost>(pairs) * net.top_distance(a, b);
        res.routing_cost += legs;
        split.cross_cost += legs;
      }
    }
  split.intra_cost = total - ascents;
  split.cross_requests = pt.cross_requests;
  split.intra_requests = pt.total_requests - pt.cross_requests;
  res.cross_shard += static_cast<Cost>(pt.cross_requests);
  net.note_cross_served(static_cast<Cost>(pt.cross_requests));
  return split;
}

}  // namespace

namespace {

/// Pulls from `stream` until `out` is full or the stream ends; returns how
/// many requests landed. A single fill() may legally return short, but the
/// epoch machinery needs exact epoch-sized chunks so the streamed and
/// materialized paths place every barrier identically.
std::size_t fill_exact(RequestStream& stream, std::span<Request> out) {
  std::size_t have = 0;
  while (have < out.size()) {
    const std::size_t got = stream.fill(out.subspan(have));
    if (got == 0) break;
    have += got;
  }
  return have;
}

/// Scripted crash machinery of the batch pipeline (sim/fault.hpp). While
/// kills are pending, every shard is snapshotted (a binary tree image with
/// a CRC32 trailer, in memory) at each *resume point* — chunk starts and
/// post-recovery instants. Between two resume points the map is constant and each
/// shard's ops form one contiguous drain, so a kill recovers bit-exactly:
/// restore the snapshot, re-project the sub-chunk served since it, and
/// replay the killed shard's queue under the same schedule. A replicated
/// shard skips all that and fails over by promotion. Sub-chunk drains
/// concatenate to the unsplit drain (additive counters, per-shard op
/// order preserved), so sequential == concurrent still holds with faults
/// active, and under FIFO the serve counters bit-match the unfaulted run.
class FaultInjector {
 public:
  FaultInjector(ShardedNetwork& net, const ShardedRunOptions& opt,
                SimResult& res)
      : net_(net), opt_(opt), res_(res) {
    if (opt.faults != nullptr && opt.faults->enabled()) {
      opt.faults->validate();
      kills_ = opt.faults->kills;
    }
  }

  bool pending() const { return next_ < kills_.size(); }

  /// Snapshots the whole fleet at a resume point. Cheap no-op once every
  /// scripted kill has fired.
  void snapshot_all() {
    if (!pending()) return;
    const int S = net_.num_shards();
    snaps_.resize(static_cast<std::size_t>(S));
    for (int s = 0; s < S; ++s)
      snaps_[static_cast<std::size_t>(s)] = net_.snapshot_shard(s);
  }

  /// Drains one chunk, splitting it at the scripted kill indices.
  /// `served_before` is the global request index of chunk[0]. `observe`
  /// rides along with the first sub-chunk's drain; a non-empty chunk
  /// always has one, and kills leave the map alone.
  ChunkSplit drain(std::span<const Request> chunk, std::size_t served_before,
                   const ObserveTask* observe) {
    ChunkSplit total;
    std::size_t done = 0;
    while (pending()) {
      const std::size_t at = kills_[next_].at_request;
      if (at < served_before + done)
        throw TreeError("FaultPlan: kill at request " + std::to_string(at) +
                        " is already in the past (script must be sorted)");
      if (at > served_before + chunk.size()) break;  // fires in a later chunk
      const std::size_t rel = at - served_before;
      const std::span<const Request> tail = chunk.subspan(done, rel - done);
      if (!tail.empty()) {
        accumulate(total, drain_chunk(net_, tail, opt_, res_, observe));
        observe = nullptr;
      }
      switch (kills_[next_].kind) {
        case FaultKind::kShardKill:
          crash_recover(kills_[next_].shard, tail);
          break;
        case FaultKind::kWorkerKill:
          // Batch drains spawn workers per chunk; there is no persistent
          // thread to kill, so the event only counts (the frontend is
          // where it bites).
          ++res_.worker_kills;
          break;
        case FaultKind::kQueuePressure:
          ++res_.queue_pressure_events;  // no queues in the batch pipeline
          break;
      }
      ++next_;
      snapshot_all();
      done = rel;
    }
    if (done < chunk.size())
      accumulate(total,
                 drain_chunk(net_, chunk.subspan(done), opt_, res_, observe));
    return total;
  }

 private:
  static void accumulate(ChunkSplit& into, const ChunkSplit& part) {
    into.cross_cost += part.cross_cost;
    into.intra_cost += part.intra_cost;
    into.cross_requests += part.cross_requests;
    into.intra_requests += part.intra_requests;
  }

  void crash_recover(int shard, std::span<const Request> tail) {
    if (shard < 0 || shard >= net_.num_shards())
      throw TreeError("FaultPlan: kill shard " + std::to_string(shard) +
                      " out of range (live S=" +
                      std::to_string(net_.num_shards()) + ")");
    const auto t0 = std::chrono::steady_clock::now();
    ++res_.faults_injected;
    if (net_.has_replica(shard)) {
      // Failover: the lockstep replica holds the exact pre-crash state.
      net_.promote_replica(shard);
      ++res_.replica_promotions;
    } else {
      net_.restore_shard(shard, snaps_[static_cast<std::size_t>(shard)]);
      // Replay the killed shard's queue of the tail served since the
      // snapshot, under the run's own schedule — same queue, same initial
      // tree, hence the same permutation and the same final state the
      // shard held when it died. Costs go to the recovery counters, not
      // the serve counters.
      PartitionedTrace pt = partition_trace(tail, net_.map());
      std::vector<ShardOp>& ops = pt.ops[static_cast<std::size_t>(shard)];
      const ShardDrain replay =
          drain_shard(net_.shard(shard), nullptr, ops, opt_.schedule);
      res_.recovery_replayed += static_cast<Cost>(ops.size());
      res_.recovery_cost +=
          replay.sim.routing_cost + replay.sim.rotation_count;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    res_.recovery_total_ms += ms;
    res_.recovery_max_ms = std::max(res_.recovery_max_ms, ms);
  }

  ShardedNetwork& net_;
  const ShardedRunOptions& opt_;
  SimResult& res_;
  std::vector<FaultEvent> kills_;
  std::size_t next_ = 0;
  std::vector<std::string> snaps_;  ///< [shard] tree image snapshot
};

}  // namespace

SimResult run_trace_sharded_stream(ShardedNetwork& net, RequestStream& stream,
                                   const ShardedRunOptions& opt) {
  opt.schedule.validate();
  SimResult res;
  res.schedule = opt.schedule.policy;
  const std::size_t total = stream.size();

  FaultInjector injector(net, opt, res);
  // Migration planning needs S > 1 to have anywhere to move nodes;
  // lifecycle planning creates and destroys shards, so it runs (from its
  // own epoch barrier) even on a single-shard fleet.
  const bool adaptive =
      opt.rebalance != nullptr &&
      ((opt.rebalance->enabled() && net.num_shards() > 1) ||
       opt.rebalance->lifecycle_enabled());
  if (!adaptive) {
    // Chunking is cost-invariant (additive counters, per-shard order
    // preserved across boundaries), so the static path streams in fixed
    // chunks and still matches the one-big-chunk materialized drain bit
    // for bit.
    std::vector<Request> buf(std::min(total, kStreamChunkRequests));
    while (true) {
      const std::size_t got = fill_exact(stream, buf);
      if (got == 0) break;
      injector.snapshot_all();
      injector.drain(std::span<const Request>(buf.data(), got), res.requests,
                     nullptr);
      res.requests += got;
    }
  } else {
    // Rebalance epochs: drain a chunk while the same round accounts it into
    // the sliding window, let the trigger decide at the barrier, apply the
    // batch, resume. The final chunk skips the observe and the barrier —
    // there is nothing left to serve, so a rebalance there would be pure
    // cost. The barrier's rebuilds run as wide as the drains.
    RebalanceState state(*opt.rebalance);
    const RebalanceCostHints base_hints = net.cost_hints();
    const std::size_t epoch = opt.rebalance->epoch_requests;
    const double decay = opt.rebalance->window_decay;
    const int width = opt.sequential ? 1 : opt.threads;
    double cross_cost = 0.0, intra_cost = 0.0;
    double cross_reqs = 0.0, intra_reqs = 0.0;
    std::vector<Request> buf(std::min(total, epoch));
    while (true) {
      const std::size_t got = fill_exact(stream, buf);
      if (got == 0) break;
      const std::span<const Request> chunk(buf.data(), got);
      const bool last = res.requests + got >= total || got < epoch;
      const ObserveTask observe{&state, chunk};
      injector.snapshot_all();
      const ChunkSplit split =
          injector.drain(chunk, res.requests, last ? nullptr : &observe);
      res.requests += got;
      if (last) break;
      // Aged at the same rate as the pair window, so the cost measurement
      // tracks the topology the upcoming plan will actually serve instead
      // of averaging in the long-gone cold-start epochs.
      cross_cost = cross_cost * decay + static_cast<double>(split.cross_cost);
      intra_cost = intra_cost * decay + static_cast<double>(split.intra_cost);
      cross_reqs =
          cross_reqs * decay + static_cast<double>(split.cross_requests);
      intra_reqs =
          intra_reqs * decay + static_cast<double>(split.intra_requests);

      // Price colocation with the run's own measurements once both sides
      // have been observed: what a cross-shard request has actually cost
      // here, minus what an intra-shard one does. Splaying keeps hot
      // nodes at their shard roots, so the static structural estimate can
      // badly overprice the ascents — a measured penalty of ~0 correctly
      // parks the rebalancer instead of churning nodes for nothing. The
      // inputs are sums of exact integer totals scaled by dyadic decay
      // factors: bit-deterministic across drain modes and thread counts.
      RebalanceCostHints hints = base_hints;
      if (cross_reqs > 0.0 && intra_reqs > 0.0) {
        hints.cross_penalty =
            std::max(0.0, cross_cost / cross_reqs - intra_cost / intra_reqs);
      }

      RebalancePlan plan = state.epoch(net.map(), hints);
      if (plan.triggered) {
        ++res.rebalance_epochs;
        if (!plan.migrations.empty()) {
          const MigrationResult applied =
              net.apply_migrations(std::move(plan.migrations), width);
          res.migrations += applied.migrated;
          res.migration_cost += applied.total_cost();
        }
      }
      // Lifecycle barrier. Plan ids refer to the pre-lifecycle map, so
      // replicas are reconciled first; the split/merge (which renumbers
      // shards and drops their replicas) applies last. The next chunk top
      // re-snapshots, so pending kills never replay across this barrier.
      if (opt.rebalance->replicas > 0) {
        for (int s = 0; s < net.num_shards(); ++s) {
          const bool want = std::binary_search(plan.replicate.begin(),
                                               plan.replicate.end(), s);
          if (want && !net.has_replica(s))
            net.add_replica(s);
          else if (!want && net.has_replica(s))
            net.drop_replica(s);
        }
      }
      // Migrations applied above may have reshaped the very shard the plan
      // targets (watermark migration and split watch the same hot shard),
      // so the split precondition is re-checked against the live map —
      // deterministically: the barrier state is identical across drain
      // modes.
      if (plan.split_shard >= 0 &&
          net.map().shard_size(plan.split_shard) >= 2) {
        const LifecycleResult lr = net.split_shard(plan.split_shard, width);
        ++res.shard_splits;
        res.lifecycle_cost += lr.total_cost();
      } else if (plan.merge_from >= 0) {
        const LifecycleResult lr =
            net.merge_shards(plan.merge_into, plan.merge_from);
        ++res.shard_merges;
        res.lifecycle_cost += lr.total_cost();
      }
    }
  }
  res.final_shards = net.num_shards();

  // Dispatch-time intra fraction from the drain counters. When nodes
  // migrated this reflects the maps requests were actually served under;
  // the Trace& adapter upgrades it to a final-map re-scan, which a
  // single-pass stream cannot do.
  res.post_intra_fraction =
      res.requests == 0
          ? 0.0
          : 1.0 - static_cast<double>(res.cross_shard) /
                      static_cast<double>(res.requests);
  return res;
}

SimResult run_trace_sharded(ShardedNetwork& net, const Trace& trace,
                            const ShardedRunOptions& opt) {
  TraceStream stream(trace);
  SimResult res = run_trace_sharded_stream(net, stream, opt);
  // With an unchanged map the final intra fraction is already in the drain
  // counters; only an actually-changed map (migrations, or a lifecycle
  // split/merge, which rewrites shard ids wholesale) needs the full-trace
  // re-scan against the live shard count.
  if (res.migrations != 0 || res.shard_splits != 0 || res.shard_merges != 0)
    res.post_intra_fraction =
        compute_shard_stats(trace, net.map()).intra_fraction();
  return res;
}

}  // namespace san
