#include "sim/simulator.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "sim/control_plane.hpp"

namespace san {

SimResult run_trace(AnyNetwork& net, const Trace& trace,
                    const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace(n, trace, sched); });
}

SimResult run_trace_stream(AnyNetwork& net, RequestStream& stream,
                           const ScheduleConfig& sched) {
  return net.visit([&](auto& n) { return run_trace_stream(n, stream, sched); });
}

SimResult run_trace_static(const KAryTree& tree, const Trace& trace) {
  SimResult res;
  for (const Request& r : trace.requests) {
    res.routing_cost += serve_on_static_tree(tree, r.src, r.dst).routing_cost;
    ++res.requests;
  }
  return res;
}

namespace {

/// Feeds one chunk into the rebalance window as one more task of its drain
/// round (ControlPlane::observe reads only the map).
struct ObserveTask {
  ControlPlane* plane = nullptr;
  std::span<const Request> requests;

  void run() const {
    for (const Request& r : requests) plane->observe(r);
  }
};

/// Serves one contiguous slice of the trace through the batched pipeline
/// and accumulates its costs into `res`. A non-null `observe` runs as the
/// round's last task. Leaves each shard's queue in `pt`, in the order the
/// shard served it.
CostSplit drain_chunk(ShardedNetwork& net, std::span<const Request> chunk,
                      const ShardedRunOptions& opt, SimResult& res,
                      const ObserveTask* observe, PartitionedTrace& pt) {
  pt = partition_trace(chunk, net.map());
  const int S = net.num_shards();

  // One result slot and one queue per shard: workers share nothing, so the
  // drain is deterministic regardless of scheduling (locality reordering
  // included — it permutes each shard's own queue deterministically).
  std::vector<ShardDrain> partial(static_cast<std::size_t>(S));
  const auto drain = [&](int s) {
    partial[static_cast<std::size_t>(s)] = drain_shard(
        net, s, pt.ops[static_cast<std::size_t>(s)], opt.schedule);
  };
  // Longest queue first and the observe task last: the round lasts as
  // long as the task that starts last.
  std::vector<int> order(static_cast<std::size_t>(S));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::size_t qa = pt.ops[static_cast<std::size_t>(a)].size();
    const std::size_t qb = pt.ops[static_cast<std::size_t>(b)].size();
    return qa != qb ? qa > qb : a < b;
  });
  parallel_for(0, S + (observe != nullptr ? 1 : 0), opt.threads, [&](long i) {
    if (i < S)
      drain(order[static_cast<std::size_t>(i)]);
    else
      observe->run();
  });

  // Combine in shard index order (fixed at any width): per-shard sums
  // plus the static top-level legs of every cross-shard request.
  CostSplit split;
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

/// Drains one chunk, split at the scripted fault indices (sim/fault.hpp).
/// `served_before` is the global request index of chunk[0]. Between two
/// resume points (chunk starts and post-fault instants, where the plane
/// re-snapshots the fleet) the map is constant and each shard's ops form
/// one contiguous drain, so a killed shard recovers bit-exactly from its
/// snapshot and the queue it served since. Sub-chunk drains concatenate to
/// the unsplit drain (additive counters, per-shard op order preserved), so
/// every width still gives the same costs with faults active, and under FIFO
/// the serve counters bit-match the unfaulted run. `observe` rides along
/// with the first sub-chunk's drain; kills leave the map alone.
CostSplit drain_faulted(ControlPlane& plane, ShardedNetwork& net,
                        std::span<const Request> chunk,
                        std::size_t served_before,
                        const ShardedRunOptions& opt, SimResult& res,
                        const ObserveTask* observe) {
  CostSplit split;
  std::size_t done = 0;
  for (const FaultEvent* ev = plane.next_fault();
       ev != nullptr && ev->at_request <= served_before + chunk.size();
       ev = plane.next_fault()) {
    const std::size_t rel = ev->at_request - served_before;
    // Empty when no sub-drain ran since the last resume point (a kill on
    // the chunk's first request, or a second kill at the same index): the
    // shard served nothing since its snapshot.
    PartitionedTrace pt;
    if (rel > done) {
      split += drain_chunk(net, chunk.subspan(done, rel - done), opt, res,
                           observe, pt);
      observe = nullptr;
    }
    // The batch pipeline has no persistent workers and no queues, so a
    // worker kill or a queue-pressure event only counts.
    const FaultEvent fault = plane.take_fault();
    if (fault.kind == FaultKind::kShardKill)
      plane.recover(fault.shard,
                    pt.ops.empty()
                        ? std::span<ShardOp>()
                        : pt.ops[static_cast<std::size_t>(fault.shard)]);
    plane.snapshot_all();
    done = rel;
  }
  PartitionedTrace pt;
  if (done < chunk.size())
    split += drain_chunk(net, chunk.subspan(done), opt, res, observe, pt);
  return split;
}

}  // namespace

SimResult run_trace_sharded_stream(ShardedNetwork& net, RequestStream& stream,
                                   const ShardedRunOptions& opt) {
  opt.schedule.validate();
  SimResult res;
  ControlPlane plane(net, opt.rebalance, opt.faults, res);
  // Chunking is cost-invariant (additive counters, per-shard order
  // preserved across boundaries), so a static run streams in fixed chunks
  // and still matches the one-big-chunk materialized drain bit for bit.
  // An adaptive run drains one epoch per chunk while the same round
  // observes it, and a barrier follows every chunk but the last: there is
  // nothing left to serve, so a rebalance there would be pure cost. The
  // barrier's rebuilds run as wide as the drains.
  const bool adaptive = plane.adaptive();
  const std::size_t chunk_size =
      adaptive ? plane.epoch_requests() : kStreamChunkRequests;
  const std::size_t total = stream.size();
  CostSplit served;
  std::vector<Request> buf(std::min(total, chunk_size));
  while (true) {
    const std::size_t got = fill_exact(stream, buf);
    if (got == 0) break;
    const std::span<const Request> chunk(buf.data(), got);
    const bool last = res.requests + got >= total || got < chunk_size;
    const ObserveTask observe{&plane, chunk};
    plane.snapshot_all();
    served += drain_faulted(plane, net, chunk, res.requests, opt, res,
                            adaptive && !last ? &observe : nullptr);
    res.requests += got;
    if (last) break;
    // The next chunk top re-snapshots, so pending kills never replay
    // across this barrier.
    if (adaptive) plane.barrier(served, opt.threads);
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
  rescan_post_intra(res, trace, net.map());
  return res;
}

}  // namespace san
