// san_cli: run any workload x topology combination from the command line.
//
//   san_cli --workload hpc --topology ksplay --k 4 --n 500 --requests 100000
//   san_cli --trace mytrace.txt --topology centroid --k 2
//   san_cli --workload temporal075 --topology optimal --k 3 --dump-tree t.dot
//   san_cli --workload facebook --topology ksplay --shards 8 --partition hash
//   san_cli --workload elephants --shards 8 --rebalance hotpair --epoch 5000
//
// Workloads: uniform temporal025 temporal05 temporal075 temporal09 hpc
//            projector facebook elephants rotating, or --trace FILE
//            (san-trace v1).
// Topologies: ksplay (k-ary SplayNet), semisplay (k-semi-splay only),
//             centroid ((k+1)-SplayNet), binary (classic SplayNet),
//             full (static complete k-ary), optimal (static demand-aware
//             DP over the whole trace — hindsight reference).
// Sharding: --shards S > 1 partitions the node space into S independent
// ksplay/semisplay shards under a static top-level tree (--partition
// contiguous|hash) and reports per-shard locality. --rebalance
// none|hotpair|watermark turns on adaptive rebalancing epochs over the
// batched pipeline (--epoch N requests per epoch, drift trigger), with
// migration counters in the summary.
// Serving mode: --open-loop feeds the trace through the live frontend
// (sim/serve_frontend.hpp) at a timed arrival schedule instead of
// replaying it closed-loop: --arrival poisson|bursty|saturation,
// --rate R requests/s, --duration T seconds (T > 0 sizes the trace as
// R*T requests, overriding --requests). Needs ksplay/semisplay; composes
// with --shards and --rebalance, and reports offered/achieved rate plus
// sojourn-latency p50/p99/p999/max in microseconds.
// Output: one summary table (mean / p50 / p99 / max per-request cost,
// rotation and link-change totals) and optional CSV / dot dumps. The
// rebalancing path serves through the batched drain, so per-request
// percentiles are not available there.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/splaynet.hpp"
#include "io/trace_io.hpp"
#include "io/trace_v2.hpp"
#include "io/tree_io.hpp"
#include "sim/any_network.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "stats/series.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"
#include "workload/partition.hpp"
#include "workload/streaming.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace san;

struct Options {
  std::string workload = "temporal05";
  std::string trace_path;
  std::string trace_v2_path;
  bool stream = false;
  std::string topology = "ksplay";
  int k = 3;
  int n = 0;  // 0 = workload default
  int shards = 1;
  std::string partition = "contiguous";
  std::string rebalance = "none";
  std::size_t epoch = 5000;
  double split_watermark = 0.0;  // > 0 enables watermark-triggered splits
  double merge_watermark = 0.0;  // > 0 enables cold-shard merges
  int replicas = 0;              // planned read replicas
  std::string fault;         // fault script "[KIND:]IDX@SHARD[,...]"
  bool chaos = false;        // --chaos-seed given: generate the script
  std::uint64_t chaos_seed = 0;
  double recovery_slo = 0.0;     // ms; > 0 prints an SLO verdict
  std::string queue_policy = "block";  // frontend full-queue policy
  double deadline_ms = 0.0;            // per-request budget (deadline policy)
  double admit_rate = 0.0;             // token-bucket admission throttle
  std::string schedule = "fifo";
  int sched_window = 1024;
  int sched_group = 8;
  std::size_t requests = 100000;
  std::uint64_t seed = 1;
  bool open_loop = false;
  std::string arrival = "poisson";
  double rate = 1e6;      // requests per second of the arrival schedule
  double duration = 0.0;  // seconds; > 0 sizes the trace as rate * duration
  std::string dump_tree;      // dot output path
  std::string dump_trace;     // san-trace v1 (text) output path
  std::string dump_trace_v2;  // san-trace v2 (binary) output path
  bool csv = false;
  bool optimal_gap = false;
};

// Hindsight optimality gap: cost of the Theorem 2 optimal static tree for
// the trace's own demand matrix, via the cost-only DP entry (no tree is
// materialized). Feasible well past the old n = 256 ceiling since the
// DP engine rewrites, but the DP's table footprint is O(n^2 k): 2k-4
// packed tables (one at k = 2) of n(n+1)/2 cells. Cap it so an
// interactive run cannot silently allocate gigabytes (k = 2 at n = 4096
// is 67 MB of tables beside the 268 MB demand matrix; k = 10 at the same
// n is 1.07 GB of tables, just under the cap).
constexpr int kMaxOptimalGapNodes = 4096;
constexpr std::size_t kMaxOptimalGapTableBytes = 1'200'000'000;

Cost optimal_cost_for(const Trace& trace, int k) {
  if (trace.n > kMaxOptimalGapNodes)
    throw TreeError("--optimal-gap supports n <= " +
                    std::to_string(kMaxOptimalGapNodes) + " (got n = " +
                    std::to_string(trace.n) + ")");
  const std::size_t tables = static_cast<std::size_t>(std::max(1, 2 * k - 4));
  const std::size_t cells =
      static_cast<std::size_t>(trace.n) * (trace.n + 1) / 2;
  if (tables * cells * sizeof(Cost) > kMaxOptimalGapTableBytes)
    throw TreeError(
        "--optimal-gap: DP tables for n = " + std::to_string(trace.n) +
        ", k = " + std::to_string(k) + " would exceed " +
        std::to_string(kMaxOptimalGapTableBytes / 1'000'000) +
        " MB; lower n or k");
  DemandMatrix d = DemandMatrix::from_trace(trace);
  return optimal_routing_based_cost(k, d, 0);
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--workload NAME | --trace FILE | --trace-v2 FILE] [--stream]\n"
         "          [--topology NAME] [--k K]\n"
         "          [--n N] [--requests M] [--seed S] [--csv]\n"
         "          [--shards S] [--partition contiguous|hash]\n"
         "          [--rebalance none|hotpair|watermark] [--epoch N]\n"
         "          [--split-watermark X] [--merge-watermark X]\n"
         "          [--replicas R] [--fault [KIND:]IDX@SHARD[,...]]\n"
         "          [--chaos-seed SEED] [--recovery-slo MS]\n"
         "          [--schedule fifo|locality] [--sched-window W]\n"
         "          [--sched-group G]\n"
         "          [--open-loop] [--arrival poisson|bursty|saturation]\n"
         "          [--rate R] [--duration T]\n"
         "          [--queue-policy block|shed|deadline] [--deadline-ms D]\n"
         "          [--admit-rate R]\n"
         "          [--optimal-gap]\n"
         "          [--dump-tree FILE.dot] [--dump-trace FILE]\n"
         "          [--dump-trace-v2 FILE]\n"
         "workloads: uniform temporal025 temporal05 temporal075 temporal09\n"
         "           hpc projector facebook elephants rotating seqscan\n"
         "           bitrev\n"
         "topologies: ksplay semisplay centroid binary full optimal\n"
         "--shards > 1 runs ksplay/semisplay shards under a static top tree\n"
         "--rebalance adds adaptive migration epochs (needs --shards > 1)\n"
         "--split-watermark/--merge-watermark add tablet-style shard\n"
         "  lifecycle epochs (split the hot shard / merge the two coldest);\n"
         "  --replicas R keeps the R hottest shards read-replicated. Works\n"
         "  in the batch pipeline and under --open-loop, where splits spawn\n"
         "  workers and merges retire them mid-run\n"
         "--fault fires KIND (k = shard kill, the default; w = worker kill;\n"
         "  q = queue pressure) at shard SHARD when the request counter\n"
         "  reaches IDX; shard kills crash-recover (replica promotion, else\n"
         "  snapshot + replay). --chaos-seed generates a valid random script\n"
         "  instead (deterministic per seed);\n"
         "  --recovery-slo MS prints a pass/fail verdict on recovery time\n"
         "--queue-policy picks what a full frontend queue does (block is\n"
         "  lossless backpressure; shed drops; deadline sheds requests older\n"
         "  than --deadline-ms at admission and dequeue); --admit-rate R\n"
         "  arms a token-bucket admission throttle (open-loop only)\n"
         "--schedule locality reorders requests within --sched-window slots\n"
         "  by LCA cluster and serves --sched-group descents behind a\n"
         "  prefetch warm-up of their access paths (per shard / admission\n"
         "  batch); costs are the honest costs of the permuted order —\n"
         "  totals only, no per-request percentiles. fifo (default) is\n"
         "  bit-identical to previous releases\n"
         "--open-loop serves through the live frontend at --rate req/s for\n"
         "  --duration seconds (ksplay/semisplay; composes with --shards\n"
         "  and --rebalance; reports sojourn p50/p99/p999 in us)\n"
         "--optimal-gap adds online-cost / optimal-static-cost rows (exact\n"
         "  Theorem 2 DP on the trace's demand matrix; n <= 4096)\n"
         "--trace-v2 reads the binary san-trace v2 format (io/trace_v2.hpp);\n"
         "  --dump-trace-v2 writes it\n"
         "--stream replays without materializing the trace: a generated\n"
         "  workload is pulled on demand, a --trace-v2 file is mmapped and\n"
         "  read in chunks, so memory stays O(chunk) at any request count\n"
         "  (ksplay/semisplay; composes with --shards, --rebalance, and\n"
         "  --open-loop; per-request percentiles and dumps unavailable)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") o.workload = next();
    else if (arg == "--trace") o.trace_path = next();
    else if (arg == "--trace-v2") o.trace_v2_path = next();
    else if (arg == "--stream") o.stream = true;
    else if (arg == "--topology") o.topology = next();
    else if (arg == "--k") o.k = std::stoi(next());
    else if (arg == "--n") o.n = std::stoi(next());
    else if (arg == "--shards") o.shards = std::stoi(next());
    else if (arg == "--partition") o.partition = next();
    else if (arg == "--rebalance") o.rebalance = next();
    else if (arg == "--epoch") {
      // stoull would silently wrap "-1" to a huge epoch (= rebalancing
      // off); parse signed and range-check instead.
      const long long v = std::stoll(next());
      if (v < 0) usage(argv[0]);
      o.epoch = static_cast<std::size_t>(v);
    }
    else if (arg == "--split-watermark") o.split_watermark = std::stod(next());
    else if (arg == "--merge-watermark") o.merge_watermark = std::stod(next());
    else if (arg == "--replicas") o.replicas = std::stoi(next());
    else if (arg == "--fault") o.fault = next();
    else if (arg == "--chaos-seed") {
      o.chaos = true;
      o.chaos_seed = std::stoull(next());
    }
    else if (arg == "--recovery-slo") o.recovery_slo = std::stod(next());
    else if (arg == "--queue-policy") o.queue_policy = next();
    else if (arg == "--deadline-ms") o.deadline_ms = std::stod(next());
    else if (arg == "--admit-rate") o.admit_rate = std::stod(next());
    else if (arg == "--schedule") o.schedule = next();
    else if (arg == "--sched-window") o.sched_window = std::stoi(next());
    else if (arg == "--sched-group") o.sched_group = std::stoi(next());
    else if (arg == "--requests") o.requests = std::stoull(next());
    else if (arg == "--seed") o.seed = std::stoull(next());
    else if (arg == "--open-loop") o.open_loop = true;
    else if (arg == "--arrival") o.arrival = next();
    else if (arg == "--rate") o.rate = std::stod(next());
    else if (arg == "--duration") o.duration = std::stod(next());
    else if (arg == "--dump-tree") o.dump_tree = next();
    else if (arg == "--dump-trace") o.dump_trace = next();
    else if (arg == "--dump-trace-v2") o.dump_trace_v2 = next();
    else if (arg == "--csv") o.csv = true;
    else if (arg == "--optimal-gap") o.optimal_gap = true;
    else usage(argv[0]);
  }
  return o;
}

WorkloadKind parse_workload(const std::string& name) {
  static const std::map<std::string, WorkloadKind> kinds = {
      {"uniform", WorkloadKind::kUniform},
      {"temporal025", WorkloadKind::kTemporal025},
      {"temporal05", WorkloadKind::kTemporal05},
      {"temporal075", WorkloadKind::kTemporal075},
      {"temporal09", WorkloadKind::kTemporal09},
      {"hpc", WorkloadKind::kHpc},
      {"projector", WorkloadKind::kProjector},
      {"facebook", WorkloadKind::kFacebook},
      {"elephants", WorkloadKind::kPhaseElephants},
      {"rotating", WorkloadKind::kRotatingHot},
      {"seqscan", WorkloadKind::kSequentialScan},
      {"bitrev", WorkloadKind::kBitReversal},
  };
  auto it = kinds.find(name);
  if (it == kinds.end()) throw TreeError("unknown workload: " + name);
  return it->second;
}

// Rejects unknown policy names and non-positive window/group at argument
// level (ScheduleConfig::validate also rejects group > window) so a typo
// fails fast instead of surfacing mid-run.
ScheduleConfig parse_schedule(const Options& o) {
  ScheduleConfig s;
  if (o.schedule == "fifo")
    s.policy = SchedulePolicy::kFifo;
  else if (o.schedule == "locality")
    s.policy = SchedulePolicy::kLocality;
  else
    throw TreeError("unknown schedule policy: " + o.schedule +
                    " (expected fifo|locality)");
  s.window = o.sched_window;
  s.group = o.sched_group;
  s.validate();
  return s;
}

ShardPartition parse_partition(const std::string& name) {
  if (name == "contiguous") return ShardPartition::kContiguous;
  if (name == "hash") return ShardPartition::kHash;
  throw TreeError("unknown partition policy: " + name);
}

ArrivalKind parse_arrival(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "saturation") return ArrivalKind::kSaturation;
  throw TreeError("unknown arrival process: " + name);
}

RebalancePolicy parse_rebalance(const std::string& name) {
  if (name == "none") return RebalancePolicy::kNone;
  if (name == "hotpair") return RebalancePolicy::kHotPair;
  if (name == "watermark") return RebalancePolicy::kWatermark;
  throw TreeError("unknown rebalance policy: " + name);
}

RebalanceConfig make_rebalance_config(const Options& o,
                                      RebalancePolicy policy) {
  RebalanceConfig cfg;
  cfg.policy = policy;
  cfg.epoch_requests = o.epoch;
  cfg.split_watermark = o.split_watermark;
  cfg.merge_watermark = o.merge_watermark;
  cfg.replicas = o.replicas;
  return cfg;
}

QueuePolicy parse_queue_policy(const std::string& name) {
  if (name == "block") return QueuePolicy::kBlock;
  if (name == "shed") return QueuePolicy::kShed;
  if (name == "deadline") return QueuePolicy::kDeadline;
  throw TreeError("unknown queue policy: " + name +
                  " (expected block|shed|deadline)");
}

FaultPlan make_fault_plan(const Options& o, int shards, std::size_t m) {
  if (o.chaos && !o.fault.empty())
    throw TreeError("--fault and --chaos-seed are mutually exclusive");
  FaultPlan plan;
  if (o.chaos)
    plan = gen_chaos_plan(o.chaos_seed, shards, m);
  else if (!o.fault.empty())
    plan = parse_fault_plan(o.fault);
  plan.recovery_slo_ms = o.recovery_slo;
  return plan;
}

void add_lifecycle_rows(Table& out, const SimResult& res) {
  out.add_row({"shard splits", std::to_string(res.shard_splits)});
  out.add_row({"shard merges", std::to_string(res.shard_merges)});
  out.add_row({"lifecycle cost", std::to_string(res.lifecycle_cost)});
  out.add_row({"final shards", std::to_string(res.final_shards)});
  out.add_row({"replica reads", std::to_string(res.replica_reads)});
}

void add_fault_rows(Table& out, const SimResult& res, const FaultPlan& plan) {
  out.add_row({"faults injected", std::to_string(res.faults_injected)});
  out.add_row({"worker kills", std::to_string(res.worker_kills)});
  out.add_row(
      {"queue pressure events", std::to_string(res.queue_pressure_events)});
  out.add_row({"replica promotions", std::to_string(res.replica_promotions)});
  out.add_row(
      {"recovery replayed ops", std::to_string(res.recovery_replayed)});
  out.add_row({"recovery cost", std::to_string(res.recovery_cost)});
  out.add_row({"recovery max (ms)", fixed_cell(res.recovery_max_ms)});
  if (plan.recovery_slo_ms > 0.0)
    out.add_row({"recovery SLO (" + fixed_cell(plan.recovery_slo_ms) + " ms)",
                 res.recovery_max_ms <= plan.recovery_slo_ms
                     ? std::string("met")
                     : std::string("MISSED")});
}

void add_sojourn_rows(Table& out, const LatencyHistogram& sojourn) {
  const auto us = [](std::uint64_t ns) {
    return fixed_cell(static_cast<double>(ns) / 1e3);
  };
  out.add_row({"sojourn p50 (us)", us(sojourn.p50())});
  out.add_row({"sojourn p99 (us)", us(sojourn.p99())});
  out.add_row({"sojourn p999 (us)", us(sojourn.p999())});
  out.add_row({"sojourn max (us)", us(sojourn.max())});
}

void add_overload_rows(Table& out, const FrontendResult& r,
                       QueuePolicy policy) {
  out.add_row({"queue policy", queue_policy_name(policy)});
  out.add_row(
      {"queue full blocks", std::to_string(r.sim.queue_full_blocks)});
  if (r.sim.shed_requests > 0) {
    out.add_row({"shed requests", std::to_string(r.sim.shed_requests)});
    out.add_row({"  at full queue", std::to_string(r.sim.shed_queue_full)});
    out.add_row({"  throttled", std::to_string(r.sim.shed_throttled)});
    out.add_row(
        {"  deadline expired", std::to_string(r.sim.deadline_expired)});
    out.add_row({"  cross-shard legs", std::to_string(r.sim.cross_shed)});
    out.add_row({"breaker trips", std::to_string(r.sim.breaker_trips)});
    out.add_row({"shed age p99 (us)",
                 fixed_cell(static_cast<double>(r.shed.p99()) / 1e3)});
  }
  if (r.route_epochs > 0)
    out.add_row({"route epochs", std::to_string(r.route_epochs)});
}

// `opt_cost` receives the DP value when this factory already computed it
// (the "optimal" topology), so --optimal-gap does not re-run the O(n^3 k)
// forward pass a second time just to print the ratio 1.000.
AnyNetwork make_network(const Options& o, const Trace& trace,
                        std::optional<Cost>& opt_cost) {
  const int n = trace.n;
  const SplayMode mode = o.topology == "semisplay"
                             ? SplayMode::kSemiSplayOnly
                             : SplayMode::kFullSplay;
  if (o.shards != 1) {
    if (o.topology != "ksplay" && o.topology != "semisplay")
      throw TreeError("--shards requires a ksplay or semisplay topology");
    return ShardedNetwork::balanced(o.k, n, o.shards,
                                    parse_partition(o.partition), mode);
  }
  if (o.topology == "ksplay" || o.topology == "semisplay")
    return KArySplayNet::balanced(o.k, n, RotationPolicy{}, mode);
  if (o.topology == "centroid") return CentroidSplayNet(o.k, n);
  if (o.topology == "binary") return BinarySplayNet(n);
  if (o.topology == "full")
    return StaticTreeNetwork(full_kary_tree(o.k, n), "full tree");
  if (o.topology == "optimal") {
    DemandMatrix d = DemandMatrix::from_trace(trace);
    OptimalTreeResult r = optimal_routing_based_tree(o.k, d, 0);
    opt_cost = r.total_distance;
    return StaticTreeNetwork(std::move(r.tree), "optimal static tree");
  }
  throw TreeError("unknown topology: " + o.topology);
}

const KAryTree* tree_of(AnyNetwork& net) {
  if (auto* s = net.get_if<KArySplayNet>()) return &s->tree();
  if (auto* c = net.get_if<CentroidSplayNet>()) return &c->tree();
  if (auto* t = net.get_if<StaticTreeNetwork>()) return &t->tree();
  // binary SplayNet has its own representation; sharded has S trees
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
    const ArrivalKind arrival = parse_arrival(o.arrival);
    const ScheduleConfig sched = parse_schedule(o);
    if (o.open_loop && o.duration > 0.0) {
      if (arrival == ArrivalKind::kSaturation)
        throw TreeError("--duration needs --arrival poisson|bursty");
      if (o.rate <= 0.0) throw TreeError("--open-loop needs --rate > 0");
      o.requests = static_cast<std::size_t>(o.rate * o.duration);
      if (o.requests == 0) throw TreeError("--rate * --duration rounds to 0");
    }
    if (!o.trace_path.empty() && !o.trace_v2_path.empty())
      throw TreeError("--trace and --trace-v2 are mutually exclusive");
    if (!o.open_loop &&
        (o.queue_policy != "block" || o.deadline_ms > 0.0 || o.admit_rate > 0.0))
      throw TreeError(
          "--queue-policy/--deadline-ms/--admit-rate need --open-loop");

    if (o.stream) {
      // Single-pass replay: requests are pulled on demand, never
      // materialized, so the resident set is O(chunk) at any m.
      if (!o.trace_path.empty())
        throw TreeError("--stream needs a generated workload or --trace-v2");
      if (!o.dump_tree.empty() || !o.dump_trace.empty() ||
          !o.dump_trace_v2.empty() || o.optimal_gap)
        throw TreeError(
            "--stream does not compose with dumps or --optimal-gap (they "
            "need the materialized trace)");
      if (o.topology != "ksplay" && o.topology != "semisplay")
        throw TreeError("--stream requires a ksplay or semisplay topology");
      const RebalancePolicy rebalance = parse_rebalance(o.rebalance);
      if (rebalance != RebalancePolicy::kNone && o.shards <= 1)
        throw TreeError("--rebalance needs --shards > 1");
      if (rebalance != RebalancePolicy::kNone && o.epoch == 0)
        throw TreeError("--rebalance needs --epoch > 0");

      std::unique_ptr<RequestStream> stream;
      if (!o.trace_v2_path.empty())
        stream = std::make_unique<TraceV2Reader>(o.trace_v2_path);
      else
        stream = std::make_unique<StreamingWorkload>(
            parse_workload(o.workload), o.n, o.requests, o.seed);

      const SplayMode mode = o.topology == "semisplay"
                                 ? SplayMode::kSemiSplayOnly
                                 : SplayMode::kFullSplay;
      ShardedNetwork net = ShardedNetwork::balanced(
          o.k, static_cast<int>(stream->n()), std::max(1, o.shards),
          parse_partition(o.partition), mode);
      const RebalanceConfig cfg = make_rebalance_config(o, rebalance);
      const FaultPlan faults =
          make_fault_plan(o, std::max(1, o.shards), stream->size());

      Table out({"metric", "value"});
      out.add_row({"network", net.name() + (o.open_loop
                                                ? " (streaming, open-loop)"
                                                : " (streaming)")});
      out.add_row({"nodes", std::to_string(stream->n())});
      if (o.open_loop) {
        FrontendOptions fopt;
        if (rebalance != RebalancePolicy::kNone || cfg.lifecycle_enabled())
          fopt.rebalance = &cfg;
        fopt.schedule = sched;
        fopt.queue_policy = parse_queue_policy(o.queue_policy);
        fopt.deadline_ms = o.deadline_ms;
        fopt.admit_rate = o.admit_rate;
        if (faults.enabled()) fopt.faults = &faults;
        StreamingArrivalSchedule schedule(arrival, o.rate, o.seed);
        ServeFrontend frontend(net, fopt);
        const FrontendResult r = frontend.run_stream(*stream, schedule);
        out.add_row({"requests", std::to_string(r.sim.requests)});
        if (sched.reorders()) {
          out.add_row({"schedule", schedule_policy_name(sched.policy)});
          out.add_row({"reordered requests",
                       std::to_string(r.sim.reordered_requests)});
        }
        out.add_row({"arrival process", arrival_kind_name(arrival)});
        out.add_row({"offered rate (req/s)", fixed_cell(r.offered_rate)});
        out.add_row({"achieved rate (req/s)", fixed_cell(r.achieved_rate)});
        out.add_row({"elapsed (s)", fixed_cell(r.elapsed_seconds)});
        add_sojourn_rows(out, r.sojourn);
        out.add_row(
            {"mean cost/request", fixed_cell(r.sim.avg_request_cost())});
        out.add_row({"total routing", std::to_string(r.sim.routing_cost)});
        out.add_row({"total rotations", std::to_string(r.sim.rotation_count)});
        out.add_row(
            {"cross-shard requests", std::to_string(r.sim.cross_shard)});
        out.add_row({"handovers", std::to_string(r.handovers)});
        if (rebalance != RebalancePolicy::kNone) {
          out.add_row(
              {"rebalance epochs", std::to_string(r.sim.rebalance_epochs)});
          out.add_row({"migrations", std::to_string(r.sim.migrations)});
          out.add_row({"migration cost", std::to_string(r.sim.migration_cost)});
          out.add_row({"forwards", std::to_string(r.forwards)});
          out.add_row({"intra-shard fraction (at dispatch)",
                       fixed_cell(r.sim.post_intra_fraction)});
        }
        add_overload_rows(out, r, fopt.queue_policy);
        if (cfg.lifecycle_enabled()) add_lifecycle_rows(out, r.sim);
        if (faults.enabled()) add_fault_rows(out, r.sim, faults);
      } else {
        ShardedRunOptions ropt;
        if (rebalance != RebalancePolicy::kNone || cfg.lifecycle_enabled())
          ropt.rebalance = &cfg;
        ropt.schedule = sched;
        if (faults.enabled()) ropt.faults = &faults;
        const SimResult res = run_trace_sharded_stream(net, *stream, ropt);
        out.add_row({"requests", std::to_string(res.requests)});
        if (sched.reorders()) {
          out.add_row({"schedule", schedule_policy_name(sched.policy)});
          out.add_row(
              {"reordered requests", std::to_string(res.reordered_requests)});
        }
        out.add_row({"mean cost/request", fixed_cell(res.avg_request_cost())});
        out.add_row({"total routing", std::to_string(res.routing_cost)});
        out.add_row({"total rotations", std::to_string(res.rotation_count)});
        out.add_row({"total link changes", std::to_string(res.edge_changes)});
        out.add_row({"cross-shard requests", std::to_string(res.cross_shard)});
        if (rebalance != RebalancePolicy::kNone) {
          out.add_row(
              {"rebalance epochs", std::to_string(res.rebalance_epochs)});
          out.add_row({"migrations", std::to_string(res.migrations)});
          out.add_row({"migration cost", std::to_string(res.migration_cost)});
          out.add_row(
              {"grand total cost", std::to_string(res.grand_total_cost())});
          out.add_row({"intra-shard fraction (at dispatch)",
                       fixed_cell(res.post_intra_fraction)});
        }
        if (cfg.lifecycle_enabled()) add_lifecycle_rows(out, res);
        if (faults.enabled()) add_fault_rows(out, res, faults);
      }
      if (o.csv)
        std::cout << out.to_csv();
      else
        out.print();
      return 0;
    }

    Trace trace = !o.trace_v2_path.empty()
                      ? read_trace_v2_file(o.trace_v2_path)
                      : (o.trace_path.empty()
                             ? gen_workload(parse_workload(o.workload), o.n,
                                            o.requests, o.seed)
                             : read_trace_file(o.trace_path));
    if (!o.dump_trace.empty()) write_trace_file(o.dump_trace, trace);
    if (!o.dump_trace_v2.empty()) write_trace_v2_file(o.dump_trace_v2, trace);

    const TraceStats st = compute_stats(trace);
    const RebalancePolicy rebalance = parse_rebalance(o.rebalance);
    if (rebalance != RebalancePolicy::kNone && o.shards <= 1)
      throw TreeError("--rebalance needs --shards > 1");
    if (rebalance != RebalancePolicy::kNone && o.epoch == 0)
      throw TreeError("--rebalance needs --epoch > 0");
    const RebalanceConfig lifecycle_cfg = make_rebalance_config(o, rebalance);
    const FaultPlan faults =
        make_fault_plan(o, std::max(1, o.shards), trace.size());
    if ((lifecycle_cfg.lifecycle_enabled() || faults.enabled()) &&
        o.shards <= 1 && !o.open_loop)
      throw TreeError("--split-watermark/--merge-watermark/--replicas/--fault "
                      "need --shards > 1 (or --open-loop for --fault)");
    if (o.open_loop) {
      // Live serving path: ServeFrontend over a ShardedNetwork (S = 1 is
      // the single-worker degenerate case with identical costs).
      if (o.topology != "ksplay" && o.topology != "semisplay")
        throw TreeError("--open-loop requires a ksplay or semisplay topology");
      const SplayMode mode = o.topology == "semisplay"
                                 ? SplayMode::kSemiSplayOnly
                                 : SplayMode::kFullSplay;
      ShardedNetwork net = ShardedNetwork::balanced(
          o.k, trace.n, std::max(1, o.shards), parse_partition(o.partition),
          mode);
      FrontendOptions fopt;
      if (rebalance != RebalancePolicy::kNone ||
          lifecycle_cfg.lifecycle_enabled())
        fopt.rebalance = &lifecycle_cfg;
      fopt.schedule = sched;
      fopt.queue_policy = parse_queue_policy(o.queue_policy);
      fopt.deadline_ms = o.deadline_ms;
      fopt.admit_rate = o.admit_rate;
      if (faults.enabled()) fopt.faults = &faults;
      const auto arrivals = gen_arrival_times(
          arrival, arrival == ArrivalKind::kSaturation ? 0.0 : o.rate,
          trace.size(), o.seed);
      ServeFrontend frontend(net, fopt);
      const FrontendResult r = frontend.run(trace, arrivals);

      Table out({"metric", "value"});
      out.add_row({"network", net.name() + " (open-loop)"});
      out.add_row({"nodes", std::to_string(trace.n)});
      out.add_row({"requests", std::to_string(trace.size())});
      if (sched.reorders()) {
        out.add_row({"schedule", schedule_policy_name(sched.policy)});
        out.add_row(
            {"reordered requests", std::to_string(r.sim.reordered_requests)});
      }
      out.add_row({"arrival process", arrival_kind_name(arrival)});
      out.add_row({"offered rate (req/s)", fixed_cell(r.offered_rate)});
      out.add_row({"achieved rate (req/s)", fixed_cell(r.achieved_rate)});
      out.add_row({"elapsed (s)", fixed_cell(r.elapsed_seconds)});
      add_sojourn_rows(out, r.sojourn);
      out.add_row({"queue wait p99 (us)",
                   fixed_cell(static_cast<double>(r.queue_wait.p99()) / 1e3)});
      out.add_row({"mean cost/request", fixed_cell(r.sim.avg_request_cost())});
      out.add_row({"total routing", std::to_string(r.sim.routing_cost)});
      out.add_row({"total rotations", std::to_string(r.sim.rotation_count)});
      out.add_row({"cross-shard requests", std::to_string(r.sim.cross_shard)});
      out.add_row({"handovers", std::to_string(r.handovers)});
      if (rebalance != RebalancePolicy::kNone ||
          lifecycle_cfg.lifecycle_enabled()) {
        out.add_row({"rebalance epochs", std::to_string(r.sim.rebalance_epochs)});
        out.add_row({"migrations", std::to_string(r.sim.migrations)});
        out.add_row({"migration cost", std::to_string(r.sim.migration_cost)});
        out.add_row({"forwards", std::to_string(r.forwards)});
        out.add_row({"final intra-shard fraction",
                     fixed_cell(r.sim.post_intra_fraction)});
      }
      add_overload_rows(out, r, fopt.queue_policy);
      if (lifecycle_cfg.lifecycle_enabled()) add_lifecycle_rows(out, r.sim);
      if (faults.enabled()) add_fault_rows(out, r.sim, faults);
      if (o.csv)
        std::cout << out.to_csv();
      else
        out.print();
      return 0;
    }

    std::optional<Cost> precomputed_opt;
    AnyNetwork net = make_network(o, trace, precomputed_opt);

    Table out({"metric", "value"});
    out.add_row({"network", net.name()});
    out.add_row({"nodes", std::to_string(trace.n)});
    out.add_row({"requests", std::to_string(trace.size())});
    out.add_row({"trace repeat fraction", fixed_cell(st.repeat_fraction)});

    if (rebalance != RebalancePolicy::kNone ||
        lifecycle_cfg.lifecycle_enabled() || faults.enabled()) {
      // Adaptive path: the batched pipeline with rebalance / lifecycle
      // epochs and scripted faults. Costs come as totals (no per-request
      // series through the drains).
      ShardedNetwork& sharded = *net.get_if<ShardedNetwork>();
      ShardedRunOptions ropt;
      if (rebalance != RebalancePolicy::kNone ||
          lifecycle_cfg.lifecycle_enabled())
        ropt.rebalance = &lifecycle_cfg;
      ropt.schedule = sched;
      if (faults.enabled()) ropt.faults = &faults;
      const SimResult res = run_trace_sharded(sharded, trace, ropt);
      out.add_row({"rebalance policy", o.rebalance});
      out.add_row({"epoch requests", std::to_string(o.epoch)});
      if (sched.reorders()) {
        out.add_row({"schedule", schedule_policy_name(sched.policy)});
        out.add_row(
            {"reordered requests", std::to_string(res.reordered_requests)});
      }
      out.add_row({"mean cost/request", fixed_cell(res.avg_request_cost())});
      out.add_row({"total routing", std::to_string(res.routing_cost)});
      out.add_row({"total rotations", std::to_string(res.rotation_count)});
      out.add_row({"total link changes", std::to_string(res.edge_changes)});
      out.add_row({"rebalance epochs", std::to_string(res.rebalance_epochs)});
      out.add_row({"migrations", std::to_string(res.migrations)});
      out.add_row({"migration cost", std::to_string(res.migration_cost)});
      out.add_row({"grand total cost", std::to_string(res.grand_total_cost())});
      out.add_row(
          {"final intra-shard fraction", fixed_cell(res.post_intra_fraction)});
      out.add_row({"cross-shard requests", std::to_string(res.cross_shard)});
      out.add_row({"shard load imbalance",
                   fixed_cell(compute_shard_stats(trace, sharded.map())
                                  .load_imbalance())});
      if (lifecycle_cfg.lifecycle_enabled()) add_lifecycle_rows(out, res);
      if (faults.enabled()) add_fault_rows(out, res, faults);
      if (o.optimal_gap) {
        const Cost opt = optimal_cost_for(trace, o.k);
        out.add_row({"optimal static cost", std::to_string(opt)});
        out.add_row(
            {"optimality gap (grand total / optimal)",
             opt > 0 ? fixed_cell(
                           static_cast<double>(res.grand_total_cost()) / opt)
                     : std::string("-")});
      }
      if (o.csv)
        std::cout << out.to_csv();
      else
        out.print();
      return 0;
    }

    CostSeries series;
    Cost routing = 0, rotations = 0, links = 0;
    if (!sched.reorders()) {
      // One visit hoists the variant dispatch out of the replay loop.
      net.visit([&](auto& n) {
        for (const Request& r : trace.requests) {
          const ServeResult s = n.serve(r.src, r.dst);
          series.add(s.routing_cost + s.rotations);
          routing += s.routing_cost;
          rotations += s.rotations;
          links += s.edge_changes;
        }
      });
      out.add_row({"mean cost/request", fixed_cell(series.mean())});
      out.add_row({"p50 cost", std::to_string(series.percentile(0.50))});
      out.add_row({"p99 cost", std::to_string(series.percentile(0.99))});
      out.add_row({"max cost", std::to_string(series.max())});
    } else {
      // Scheduled replay goes through the batch engines (run_trace /
      // run_trace_sharded), which report totals: per-request percentiles
      // are not meaningful once the serve order is permuted.
      SimResult res;
      if (auto* sharded = net.get_if<ShardedNetwork>())
        res = run_trace_sharded(*sharded, trace, {.schedule = sched});
      else
        res = run_trace(net, trace, sched);
      routing = res.routing_cost;
      rotations = res.rotation_count;
      links = res.edge_changes;
      out.add_row({"schedule", schedule_policy_name(sched.policy)});
      out.add_row(
          {"reordered requests", std::to_string(res.reordered_requests)});
      out.add_row({"mean cost/request", fixed_cell(res.avg_request_cost())});
    }
    out.add_row({"total routing", std::to_string(routing)});
    out.add_row({"total rotations", std::to_string(rotations)});
    out.add_row({"total link changes", std::to_string(links)});
    if (const auto* sharded = net.get_if<ShardedNetwork>()) {
      const ShardLocalityStats ss = compute_shard_stats(trace, sharded->map());
      out.add_row({"shards", std::to_string(sharded->num_shards()) + " (" +
                                 o.partition + ")"});
      out.add_row({"cross-shard requests",
                   std::to_string(sharded->cross_shard_served())});
      out.add_row({"intra-shard fraction", fixed_cell(ss.intra_fraction())});
      out.add_row({"shard load imbalance", fixed_cell(ss.load_imbalance())});
    }
    if (o.optimal_gap) {
      // Gap of the served cost (routing + rotations, the paper's cost
      // convention) against the hindsight-optimal static k-ary tree for
      // this exact trace. The "optimal" topology serves at gap 1.000 by
      // construction; self-adjusting networks show their adjustment
      // overhead, sharded engines additionally pay the top-tree detour.
      const int gap_k = o.topology == "binary" ? 2 : o.k;
      const Cost opt =
          precomputed_opt ? *precomputed_opt : optimal_cost_for(trace, gap_k);
      out.add_row({"optimal static cost", std::to_string(opt)});
      out.add_row(
          {"optimality gap (online / optimal)",
           opt > 0
               ? fixed_cell(static_cast<double>(routing + rotations) / opt)
               : std::string("-")});
    }
    if (o.csv)
      std::cout << out.to_csv();
    else
      out.print();

    if (!o.dump_tree.empty()) {
      const KAryTree* tree = tree_of(net);
      if (tree == nullptr)
        throw TreeError("--dump-tree is not supported for this topology");
      std::ofstream dot(o.dump_tree);
      dot << to_dot(*tree);
      std::cout << "final topology written to " << o.dump_tree << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
