// Overload and degradation in the live frontend: what does each admission
// policy buy when offered load exceeds the service ceiling, and how fast
// does the dynamic fleet recover from kills and reshape itself under
// traffic?
//
// Part 1 — overload sweep: the bench first measures the saturation
// throughput of a zipf-skewed sharded config (all-zero arrival schedule),
// then offers Poisson load at 0.9x, 1.5x and 2x that ceiling under each
// queue policy. kBlock is lossless: past the ceiling the queue IS the
// backlog, so sojourn p99 grows with the run length. kShed trades
// completeness for latency — queueing stays bounded by the queue
// capacity and the excess is dropped at admission. kDeadline bounds
// staleness instead of queue depth:
// requests older than the budget are shed at admission and dequeue, so
// served p99 stays near the deadline no matter the overload factor.
//
// Part 2 — resilience under live traffic: a mid-run shard kill recovered
// by snapshot restore + tail replay vs replica promotion (250 ms SLO on
// the worst single recovery, same convention as bench_lifecycle_scaling),
// and a watermark-split run (contiguous partition, hot-range trace that
// overloads shard 0) where the fleet grows mid-flight — reported against
// a static run of the same trace so the lifecycle overhead is visible as
// an elapsed-time ratio.
//
// The checked-in BENCH_overload_scaling.json records this machine's
// numbers; --smoke shrinks everything to seconds-scale for CI.
#include <algorithm>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/fault.hpp"
#include "sim/serve_frontend.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/rebalance.hpp"

namespace {

using namespace san;

constexpr double kRecoverySloMs = 250.0;
constexpr double kDeadlineMs = 2.0;

struct OverloadRow {
  std::string policy;
  double load = 0.0;  // offered / saturation ceiling (0 = saturation row)
  double offered = 0.0;
  double achieved = 0.0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_full_blocks = 0;
  double shed_fraction = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double shed_p99_us = 0.0;
};

struct ResilienceRow {
  std::string mode;  // "restore" | "promote" | "split"
  double seconds = 0.0;
  Cost faults = 0;
  Cost promotions = 0;
  Cost replayed = 0;
  double recovery_max_ms = 0.0;
  bool slo_met = true;
  Cost splits = 0;
  std::uint64_t route_epochs = 0;
  double elapsed_ratio = 1.0;  // vs a static run of the same trace
};

FrontendOptions overload_options(QueuePolicy policy) {
  FrontendOptions opt;
  // Small enough that overload shows up as full queues within the run,
  // large enough that the healthy 0.9x point never fills it.
  opt.queue_capacity = 256;
  opt.queue_policy = policy;
  if (policy == QueuePolicy::kDeadline) opt.deadline_ms = kDeadlineMs;
  return opt;
}

OverloadRow run_overload_point(const Trace& trace, int k, int S,
                               QueuePolicy policy, ArrivalKind kind,
                               double rate, double load) {
  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  ServeFrontend frontend(net, overload_options(policy));
  const auto arrivals = gen_arrival_times(
      kind, kind == ArrivalKind::kSaturation ? 0.0 : rate, trace.size(),
      bench::bench_seed());
  const FrontendResult r = frontend.run(trace, arrivals);
  OverloadRow row;
  row.policy = queue_policy_name(policy);
  row.load = load;
  row.offered = r.offered_rate;
  row.achieved = r.achieved_rate;
  row.served = r.sojourn.count();
  row.shed = r.sim.shed_requests;
  row.queue_full_blocks = r.sim.queue_full_blocks;
  row.shed_fraction = static_cast<double>(row.shed) /
                      static_cast<double>(r.sim.requests);
  row.p50_us = static_cast<double>(r.sojourn.p50()) / 1e3;
  row.p99_us = static_cast<double>(r.sojourn.p99()) / 1e3;
  row.shed_p99_us = static_cast<double>(r.shed.p99()) / 1e3;
  return row;
}

ResilienceRow run_kill_row(const Trace& trace, int k, int S, bool promote) {
  const std::size_t m = trace.size();
  FaultPlan plan;
  plan.kills = {{m / 2, S / 2, FaultKind::kShardKill}};
  plan.recovery_slo_ms = kRecoverySloMs;

  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;
  cfg.epoch_requests = std::max<std::size_t>(500, m / 8);
  // Promotion rows keep every shard replicated so the kill fails over by
  // pointer swap; restore rows force snapshot + tail replay.
  cfg.replicas = promote ? S : 0;

  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  FrontendOptions opt;
  if (promote) opt.rebalance = &cfg;
  opt.faults = &plan;
  ServeFrontend frontend(net, opt);
  const auto arrivals = gen_arrival_times(ArrivalKind::kSaturation, 0.0,
                                          trace.size(), bench::bench_seed());
  const FrontendResult r = frontend.run(trace, arrivals);
  ResilienceRow row;
  row.mode = promote ? "promote" : "restore";
  row.seconds = r.elapsed_seconds;
  row.faults = r.sim.faults_injected;
  row.promotions = r.sim.replica_promotions;
  row.replayed = r.sim.recovery_replayed;
  row.recovery_max_ms = r.sim.recovery_max_ms;
  row.slo_met = r.sim.recovery_max_ms <= kRecoverySloMs;
  row.route_epochs = r.route_epochs;
  return row;
}

// The split row needs a shard that actually crosses the watermark;
// generator ids are shuffled across the id space, so instead hammer a
// sub-range of shard 0's contiguous slice (plus a trickle of uniform
// mice for cross-shard traffic).
Trace make_hot_range_trace(int n, std::size_t m, int S, std::uint64_t seed) {
  Trace trace;
  trace.n = n;
  trace.requests.reserve(m);
  std::mt19937_64 rng(seed);
  const NodeId hot = static_cast<NodeId>(std::max(2, (3 * (n / S)) / 4));
  for (std::size_t i = 0; i < m; ++i) {
    const bool mouse = rng() % 16 == 0;
    const NodeId span = mouse ? static_cast<NodeId>(n) : hot;
    const NodeId u = static_cast<NodeId>(1 + rng() % span);
    NodeId v = static_cast<NodeId>(1 + rng() % span);
    while (v == u) v = static_cast<NodeId>(1 + rng() % span);
    trace.requests.push_back({u, v});
  }
  return trace;
}

ResilienceRow run_split_row(const Trace& trace, int k, int S) {
  // Contiguous partition + the hot-range trace: shard 0 crosses the split
  // watermark and forces the fleet to grow mid-flight.
  const std::size_t m = trace.size();
  double static_elapsed;
  {
    ShardedNetwork net = ShardedNetwork::balanced(k, trace.n, S,
                                                  ShardPartition::kContiguous);
    ServeFrontend frontend(net, FrontendOptions{});
    const auto arrivals = gen_arrival_times(ArrivalKind::kSaturation, 0.0, m,
                                            bench::bench_seed());
    static_elapsed = frontend.run(trace, arrivals).elapsed_seconds;
  }
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kNone;  // isolate lifecycle from migrations
  cfg.epoch_requests = std::max<std::size_t>(500, m / 10);
  cfg.split_watermark = 1.5;
  cfg.max_shards = 2 * S;
  ShardedNetwork net = ShardedNetwork::balanced(k, trace.n, S,
                                                ShardPartition::kContiguous);
  FrontendOptions opt;
  opt.rebalance = &cfg;
  ServeFrontend frontend(net, opt);
  const auto arrivals = gen_arrival_times(ArrivalKind::kSaturation, 0.0, m,
                                          bench::bench_seed());
  const FrontendResult r = frontend.run(trace, arrivals);
  ResilienceRow row;
  row.mode = "split";
  row.seconds = r.elapsed_seconds;
  row.splits = r.sim.shard_splits;
  row.route_epochs = r.route_epochs;
  row.elapsed_ratio = static_elapsed > 0.0
                          ? r.elapsed_seconds / static_elapsed
                          : 1.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== overload scaling: admission policies and live recovery ==\n";
  std::cout << "hardware threads: " << resolve_threads(0) << "\n\n";

  // One dispatcher plus S shard workers share the host (see
  // bench_serve_frontend); more shards than cores measures
  // oversubscription, not overload.
  const int k = 3;
  const int S = std::clamp(resolve_threads(0) - 1, 2, 4);
  const int n = bench::scaled(64, 512, 2048);
  const std::size_t m = bench::scaled<std::size_t>(4000, 100000, 400000);
  const std::uint64_t seed = bench::bench_seed();

  const Trace zipf = gen_facebook(n, m, seed);

  // The throughput ceiling is policy-independent (no shedding at
  // saturation admission with kBlock), measured not assumed.
  const OverloadRow ceiling = run_overload_point(
      zipf, k, S, QueuePolicy::kBlock, ArrivalKind::kSaturation, 0.0, 0.0);
  const double ceiling_rate = ceiling.achieved;

  const std::vector<double> loads = {0.9, 1.5, 2.0};
  std::vector<OverloadRow> overload;
  overload.push_back(ceiling);
  for (double load : loads)
    for (QueuePolicy policy :
         {QueuePolicy::kBlock, QueuePolicy::kShed, QueuePolicy::kDeadline})
      overload.push_back(run_overload_point(zipf, k, S, policy,
                                            ArrivalKind::kPoisson,
                                            load * ceiling_rate, load));

  std::cout << "-- overload sweep (zipf, n=" << n << ", m=" << m
            << ", S=" << S << ", queue=256, deadline=" << kDeadlineMs
            << " ms, ceiling=" << static_cast<long long>(ceiling_rate)
            << " req/s) --\n";
  Table ot({"policy", "load", "offered req/s", "achieved req/s", "served",
            "shed", "shed frac", "blocks", "p50 us", "p99 us",
            "shed p99 us"});
  for (const OverloadRow& r : overload)
    ot.add_row({r.policy, fixed_cell(r.load, 2),
                std::to_string(static_cast<long long>(r.offered)),
                std::to_string(static_cast<long long>(r.achieved)),
                std::to_string(r.served), std::to_string(r.shed),
                fixed_cell(r.shed_fraction, 3),
                std::to_string(r.queue_full_blocks), fixed_cell(r.p50_us, 1),
                fixed_cell(r.p99_us, 1), fixed_cell(r.shed_p99_us, 1)});
  ot.print();
  std::cout << "\n";

  std::vector<ResilienceRow> resilience;
  resilience.push_back(run_kill_row(zipf, k, S, /*promote=*/false));
  resilience.push_back(run_kill_row(zipf, k, S, /*promote=*/true));
  resilience.push_back(
      run_split_row(make_hot_range_trace(n, m, S, seed), k, S));

  std::cout << "-- resilience under live traffic (SLO " << kRecoverySloMs
            << " ms) --\n";
  Table rt({"mode", "faults", "promotions", "replayed", "recovery max ms",
            "SLO", "splits", "route epochs", "elapsed ratio", "seconds"});
  for (const ResilienceRow& r : resilience)
    rt.add_row({r.mode, std::to_string(r.faults),
                std::to_string(r.promotions), std::to_string(r.replayed),
                fixed_cell(r.recovery_max_ms, 3),
                r.mode == "split" ? "-" : (r.slo_met ? "met" : "MISSED"),
                std::to_string(r.splits), std::to_string(r.route_epochs),
                fixed_cell(r.elapsed_ratio, 2), fixed_cell(r.seconds, 3)});
  rt.print();
  std::cout << "\n";

  std::ostringstream js;
  js << "{\n  \"bench\": \"overload_scaling\",\n  \"shards\": " << S
     << ",\n  \"k\": " << k << ",\n  \"n\": " << n
     << ",\n  \"requests\": " << m << ",\n  \"hardware_threads\": "
     << resolve_threads(0) << ",\n  \"queue_capacity\": 256"
     << ",\n  \"deadline_ms\": " << fixed_cell(kDeadlineMs, 1)
     << ",\n  \"recovery_slo_ms\": " << fixed_cell(kRecoverySloMs, 1)
     << ",\n  \"saturation_req_per_sec\": "
     << static_cast<long long>(ceiling_rate) << ",\n  \"overload\": [\n";
  for (std::size_t i = 0; i < overload.size(); ++i) {
    const OverloadRow& r = overload[i];
    js << "    {\"policy\": \"" << r.policy << "\", \"load\": "
       << fixed_cell(r.load, 2) << ", \"offered_req_per_sec\": "
       << static_cast<long long>(r.offered) << ", \"achieved_req_per_sec\": "
       << static_cast<long long>(r.achieved) << ", \"served\": " << r.served
       << ", \"shed\": " << r.shed << ", \"shed_fraction\": "
       << fixed_cell(r.shed_fraction, 4) << ", \"queue_full_blocks\": "
       << r.queue_full_blocks << ", \"p50_us\": " << fixed_cell(r.p50_us, 1)
       << ", \"p99_us\": " << fixed_cell(r.p99_us, 1) << ", \"shed_p99_us\": "
       << fixed_cell(r.shed_p99_us, 1) << "}"
       << (i + 1 < overload.size() ? ",\n" : "\n");
  }
  js << "  ],\n  \"resilience\": [\n";
  for (std::size_t i = 0; i < resilience.size(); ++i) {
    const ResilienceRow& r = resilience[i];
    js << "    {\"mode\": \"" << r.mode << "\", \"faults\": " << r.faults
       << ", \"promotions\": " << r.promotions << ", \"replayed\": "
       << r.replayed << ", \"recovery_max_ms\": "
       << fixed_cell(r.recovery_max_ms, 3) << ", \"slo_met\": "
       << (r.slo_met ? "true" : "false") << ", \"splits\": " << r.splits
       << ", \"route_epochs\": " << r.route_epochs << ", \"elapsed_ratio\": "
       << fixed_cell(r.elapsed_ratio, 3) << ", \"seconds\": "
       << fixed_cell(r.seconds, 4) << "}"
       << (i + 1 < resilience.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
