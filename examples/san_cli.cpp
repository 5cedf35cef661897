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
// percentiles are not available there. Each engine prints one row block
// whichever the source, so a --stream run prints the rows of the same
// materialized run less those that need the whole trace.
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
         "  by LCA cluster (per shard / admission batch) and serves each\n"
         "  window in that order; costs are the honest costs of the permuted\n"
         "  order — totals only, no per-request percentiles. fifo (default)\n"
         "  is bit-identical to previous releases\n"
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
         "  (ksplay/semisplay; composes with --shards, --rebalance,\n"
         "  --split-watermark, --fault and --open-loop, and prints the\n"
         "  batch pipeline's or the frontend's rows less those that scan\n"
         "  the whole trace; per-request percentiles, dumps and\n"
         "  --optimal-gap unavailable)\n";
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

// Rejects unknown policy names and a non-positive window at argument level,
// so a typo fails fast instead of surfacing mid-run.
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

// One run's inputs besides the options. `trace` is the materialized trace,
// or null when --stream pulls the requests on demand. The source decides
// only the engine's entry point, the network-name suffix, and the rows that
// need the whole trace: repeat fraction, shard load imbalance, optimality
// gap, and whether the intra-shard fraction is rescanned over the final map
// or counted at dispatch.
struct Run {
  const Options& o;
  const ScheduleConfig& sched;
  const RebalanceConfig& cfg;
  const FaultPlan& faults;
  const Trace* trace;

  /// Rebalance or lifecycle epochs run.
  bool epochs() const {
    return cfg.policy != RebalancePolicy::kNone || cfg.lifecycle_enabled();
  }
  /// The network row; a streamed run says so beside the serving mode.
  std::string network(const std::string& name, std::string mode) const {
    if (trace == nullptr)
      mode = mode.empty() ? "streaming" : "streaming, " + mode;
    return mode.empty() ? name : name + " (" + mode + ")";
  }
  const char* intra_label() const {
    return trace != nullptr ? "final intra-shard fraction"
                            : "intra-shard fraction (at dispatch)";
  }
};

Table summary_table(const std::string& network, int n, std::size_t m) {
  Table out({"metric", "value"});
  out.add_row({"network", network});
  out.add_row({"nodes", std::to_string(n)});
  out.add_row({"requests", std::to_string(m)});
  return out;
}

void print_table(const Table& out, bool csv) {
  if (csv)
    std::cout << out.to_csv();
  else
    out.print();
}

void add_schedule_rows(Table& out, const ScheduleConfig& sched,
                       Cost reordered) {
  if (!sched.reorders()) return;
  out.add_row({"schedule", schedule_policy_name(sched.policy)});
  out.add_row({"reordered requests", std::to_string(reordered)});
}

// Shard lifecycle and fault rows, each block when it is configured.
void add_fleet_rows(Table& out, const Run& run, const SimResult& res) {
  if (run.cfg.lifecycle_enabled()) {
    out.add_row({"shard splits", std::to_string(res.shard_splits)});
    out.add_row({"shard merges", std::to_string(res.shard_merges)});
    out.add_row({"lifecycle cost", std::to_string(res.lifecycle_cost)});
    out.add_row({"final shards", std::to_string(res.final_shards)});
    out.add_row({"replica reads", std::to_string(res.replica_reads)});
  }
  if (!run.faults.enabled()) return;
  out.add_row({"faults injected", std::to_string(res.faults_injected)});
  out.add_row({"worker kills", std::to_string(res.worker_kills)});
  out.add_row(
      {"queue pressure events", std::to_string(res.queue_pressure_events)});
  out.add_row({"replica promotions", std::to_string(res.replica_promotions)});
  out.add_row(
      {"recovery replayed ops", std::to_string(res.recovery_replayed)});
  out.add_row({"recovery cost", std::to_string(res.recovery_cost)});
  out.add_row({"recovery max (ms)", fixed_cell(res.recovery_max_ms)});
  const double slo = run.faults.recovery_slo_ms;
  if (slo > 0.0)
    out.add_row({"recovery SLO (" + fixed_cell(slo) + " ms)",
                 res.recovery_max_ms <= slo ? std::string("met")
                                            : std::string("MISSED")});
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

// Rows of an open-loop frontend run, after the summary rows.
void add_frontend_rows(Table& out, const Run& run, const FrontendResult& r,
                       ArrivalKind arrival, QueuePolicy policy) {
  const auto us = [](std::uint64_t ns) {
    return fixed_cell(static_cast<double>(ns) / 1e3);
  };
  add_schedule_rows(out, run.sched, r.sim.reordered_requests);
  out.add_row({"arrival process", arrival_kind_name(arrival)});
  out.add_row({"offered rate (req/s)", fixed_cell(r.offered_rate)});
  out.add_row({"achieved rate (req/s)", fixed_cell(r.achieved_rate)});
  out.add_row({"elapsed (s)", fixed_cell(r.elapsed_seconds)});
  out.add_row({"sojourn p50 (us)", us(r.sojourn.p50())});
  out.add_row({"sojourn p99 (us)", us(r.sojourn.p99())});
  out.add_row({"sojourn p999 (us)", us(r.sojourn.p999())});
  out.add_row({"sojourn max (us)", us(r.sojourn.max())});
  out.add_row({"queue wait p99 (us)", us(r.queue_wait.p99())});
  out.add_row({"mean cost/request", fixed_cell(r.sim.avg_request_cost())});
  out.add_row({"total routing", std::to_string(r.sim.routing_cost)});
  out.add_row({"total rotations", std::to_string(r.sim.rotation_count)});
  out.add_row({"cross-shard requests", std::to_string(r.sim.cross_shard)});
  out.add_row({"handovers", std::to_string(r.handovers)});
  if (run.epochs()) {
    out.add_row({"rebalance epochs", std::to_string(r.sim.rebalance_epochs)});
    out.add_row({"migrations", std::to_string(r.sim.migrations)});
    out.add_row({"migration cost", std::to_string(r.sim.migration_cost)});
    out.add_row({"forwards", std::to_string(r.forwards)});
    out.add_row({run.intra_label(), fixed_cell(r.sim.post_intra_fraction)});
  }
  add_overload_rows(out, r, policy);
  add_fleet_rows(out, run, r.sim);
}

// Rows of a batch-pipeline run, after the summary rows. A run with epochs
// or scripted faults adds the rebalance block, whose grand total is the
// one row that counts migration, lifecycle and recovery cost.
void add_batch_rows(Table& out, const Run& run, const SimResult& res,
                    const ShardedNetwork& net) {
  const bool adaptive = run.epochs() || run.faults.enabled();
  if (run.trace != nullptr)
    out.add_row({"trace repeat fraction",
                 fixed_cell(compute_stats(*run.trace).repeat_fraction)});
  if (adaptive) {
    out.add_row({"rebalance policy", run.o.rebalance});
    out.add_row({"epoch requests", std::to_string(run.o.epoch)});
  }
  add_schedule_rows(out, run.sched, res.reordered_requests);
  out.add_row({"mean cost/request", fixed_cell(res.avg_request_cost())});
  out.add_row({"total routing", std::to_string(res.routing_cost)});
  out.add_row({"total rotations", std::to_string(res.rotation_count)});
  out.add_row({"total link changes", std::to_string(res.edge_changes)});
  if (adaptive) {
    out.add_row({"rebalance epochs", std::to_string(res.rebalance_epochs)});
    out.add_row({"migrations", std::to_string(res.migrations)});
    out.add_row({"migration cost", std::to_string(res.migration_cost)});
    out.add_row({"grand total cost", std::to_string(res.grand_total_cost())});
    out.add_row({run.intra_label(), fixed_cell(res.post_intra_fraction)});
  }
  out.add_row({"cross-shard requests", std::to_string(res.cross_shard)});
  if (run.trace != nullptr)
    out.add_row({"shard load imbalance",
                 fixed_cell(compute_shard_stats(*run.trace, net.map())
                                .load_imbalance())});
  add_fleet_rows(out, run, res);
  if (run.o.optimal_gap) {  // --stream rejects it: it needs the trace
    const Cost opt = optimal_cost_for(*run.trace, run.o.k);
    out.add_row({"optimal static cost", std::to_string(opt)});
    out.add_row(
        {"optimality gap (grand total / optimal)",
         opt > 0
             ? fixed_cell(static_cast<double>(res.grand_total_cost()) / opt)
             : std::string("-")});
  }
}

SplayMode splay_mode(const Options& o) {
  return o.topology == "semisplay" ? SplayMode::kSemiSplayOnly
                                   : SplayMode::kFullSplay;
}

// The batch pipeline and the frontend serve a ShardedNetwork (S = 1 is the
// single-shard case with identical costs).
ShardedNetwork make_sharded(const Options& o, int n, int shards) {
  if (o.topology != "ksplay" && o.topology != "semisplay")
    throw TreeError(std::string(o.stream      ? "--stream"
                                : o.open_loop ? "--open-loop"
                                              : "--shards") +
                    " requires a ksplay or semisplay topology");
  return ShardedNetwork::balanced(o.k, n, shards,
                                  parse_partition(o.partition), splay_mode(o));
}

// `opt_cost` receives the DP value when this factory already computed it
// (the "optimal" topology), so --optimal-gap does not re-run the O(n^3 k)
// forward pass a second time just to print the ratio 1.000.
AnyNetwork make_network(const Options& o, const Trace& trace,
                        std::optional<Cost>& opt_cost) {
  const int n = trace.n;
  if (o.shards != 1) return make_sharded(o, n, o.shards);
  if (o.topology == "ksplay" || o.topology == "semisplay")
    return KArySplayNet::balanced(o.k, n, RotationPolicy{}, splay_mode(o));
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

    // The source: the materialized trace, or with --stream a single pass
    // that pulls requests on demand, so the resident set is O(chunk) at
    // any m.
    std::optional<Trace> materialized;
    std::unique_ptr<RequestStream> stream;
    if (o.stream) {
      if (!o.trace_path.empty())
        throw TreeError("--stream needs a generated workload or --trace-v2");
      if (!o.dump_tree.empty() || !o.dump_trace.empty() ||
          !o.dump_trace_v2.empty() || o.optimal_gap)
        throw TreeError(
            "--stream does not compose with dumps or --optimal-gap (they "
            "need the materialized trace)");
      if (!o.trace_v2_path.empty())
        stream = std::make_unique<TraceV2Reader>(o.trace_v2_path);
      else
        stream = std::make_unique<StreamingWorkload>(
            parse_workload(o.workload), o.n, o.requests, o.seed);
    } else {
      materialized = !o.trace_v2_path.empty()
                         ? read_trace_v2_file(o.trace_v2_path)
                         : (o.trace_path.empty()
                                ? gen_workload(parse_workload(o.workload),
                                               o.n, o.requests, o.seed)
                                : read_trace_file(o.trace_path));
      if (!o.dump_trace.empty()) write_trace_file(o.dump_trace, *materialized);
      if (!o.dump_trace_v2.empty())
        write_trace_v2_file(o.dump_trace_v2, *materialized);
    }
    const Trace* trace = materialized ? &*materialized : nullptr;
    const int n = trace != nullptr ? trace->n : stream->n();
    const std::size_t m = trace != nullptr ? trace->size() : stream->size();

    const RebalancePolicy rebalance = parse_rebalance(o.rebalance);
    if (rebalance != RebalancePolicy::kNone && o.shards <= 1)
      throw TreeError("--rebalance needs --shards > 1");
    if (rebalance != RebalancePolicy::kNone && o.epoch == 0)
      throw TreeError("--rebalance needs --epoch > 0");
    const RebalanceConfig cfg = make_rebalance_config(o, rebalance);
    const FaultPlan faults = make_fault_plan(o, std::max(1, o.shards), m);
    const Run run{o, sched, cfg, faults, trace};
    const bool adaptive = run.epochs() || faults.enabled();
    if (trace != nullptr && adaptive && o.shards <= 1 && !o.open_loop)
      throw TreeError("--split-watermark/--merge-watermark/--replicas/--fault "
                      "need --shards > 1 (or --open-loop for --fault)");

    if (o.open_loop) {
      // Live serving path: ServeFrontend over a ShardedNetwork.
      ShardedNetwork net = make_sharded(o, n, std::max(1, o.shards));
      FrontendOptions fopt;
      if (run.epochs()) fopt.rebalance = &cfg;
      fopt.schedule = sched;
      fopt.queue_policy = parse_queue_policy(o.queue_policy);
      fopt.deadline_ms = o.deadline_ms;
      fopt.admit_rate = o.admit_rate;
      if (faults.enabled()) fopt.faults = &faults;
      ServeFrontend frontend(net, fopt);
      const FrontendResult r = [&] {
        if (trace != nullptr)
          return frontend.run(*trace,
                              gen_arrival_times(arrival, o.rate, m, o.seed));
        StreamingArrivalSchedule schedule(arrival, o.rate, o.seed);
        return frontend.run_stream(*stream, schedule);
      }();
      Table out = summary_table(run.network(net.name(), "open-loop"), n,
                                r.sim.requests);  // final S
      add_frontend_rows(out, run, r, arrival, fopt.queue_policy);
      print_table(out, o.csv);
      return 0;
    }

    if (trace == nullptr || adaptive) {
      // The batched pipeline: every streamed run, and a materialized run
      // with rebalance / lifecycle epochs or scripted faults. Costs come as
      // totals (no per-request series through the drains).
      ShardedNetwork net = make_sharded(o, n, std::max(1, o.shards));
      const std::string network = run.network(net.name(), "");  // initial S
      ShardedRunOptions ropt;
      if (run.epochs()) ropt.rebalance = &cfg;
      ropt.schedule = sched;
      if (faults.enabled()) ropt.faults = &faults;
      const SimResult res = trace != nullptr
                                ? run_trace_sharded(net, *trace, ropt)
                                : run_trace_sharded_stream(net, *stream, ropt);
      Table out = summary_table(network, n, res.requests);
      add_batch_rows(out, run, res, net);
      print_table(out, o.csv);
      return 0;
    }

    std::optional<Cost> precomputed_opt;
    AnyNetwork net = make_network(o, *trace, precomputed_opt);
    Table out = summary_table(net.name(), n, m);
    out.add_row({"trace repeat fraction",
                 fixed_cell(compute_stats(*trace).repeat_fraction)});

    CostSeries series;
    Cost routing = 0, rotations = 0, links = 0;
    if (!sched.reorders()) {
      // One visit hoists the variant dispatch out of the replay loop.
      net.visit([&](auto& engine) {
        for (const Request& r : trace->requests) {
          const ServeResult s = engine.serve(r.src, r.dst);
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
        res = run_trace_sharded(*sharded, *trace, {.schedule = sched});
      else
        res = run_trace(net, *trace, sched);
      routing = res.routing_cost;
      rotations = res.rotation_count;
      links = res.edge_changes;
      add_schedule_rows(out, sched, res.reordered_requests);
      out.add_row({"mean cost/request", fixed_cell(res.avg_request_cost())});
    }
    out.add_row({"total routing", std::to_string(routing)});
    out.add_row({"total rotations", std::to_string(rotations)});
    out.add_row({"total link changes", std::to_string(links)});
    if (const auto* sharded = net.get_if<ShardedNetwork>()) {
      const ShardLocalityStats ss = compute_shard_stats(*trace, sharded->map());
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
          precomputed_opt ? *precomputed_opt : optimal_cost_for(*trace, gap_k);
      out.add_row({"optimal static cost", std::to_string(opt)});
      out.add_row(
          {"optimality gap (online / optimal)",
           opt > 0
               ? fixed_cell(static_cast<double>(routing + rotations) / opt)
               : std::string("-")});
    }
    print_table(out, o.csv);

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
