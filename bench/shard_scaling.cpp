// Sharded serving engine scaling: single-trace throughput and total cost
// as the shard count grows, against the unsharded k-ary SplayNet baseline.
//
// Three workloads bracket the trade-off:
//   * skewed (ProjecToR-like sparse elephant pairs, Zipf(1.2) weights,
//     scaled to n = 10^4) — the production-shaped case sharding targets:
//     hot pairs stop fighting over one root, hash partitioning spreads
//     them, every shard serves a small working-set tree.
//   * zipf (Facebook-like independent Zipf endpoints, paper n = 10^4) —
//     wide-support skew with a long uniform-ish tail.
//   * temporal075 (0.75 repeat probability) — high locality; repeats are
//     as cheap unsharded as sharded, so this bounds the cost overhead the
//     static top-level detour adds.
// For each S in {1, 2, 4, 8, 16}: partition + concurrent drain wall time
// (run_trace_sharded on the Executor, --threads wide), total cost, and
// the cross-shard fraction; the baseline row is the devirtualized
// run_trace over one KArySplayNet. The checked-in
// BENCH_shard_scaling.json records this machine's numbers.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/partition.hpp"
#include "workload/trace_stats.hpp"

namespace {

using namespace san;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string config;
  int shards = 0;
  double seconds = 0;
  double req_per_sec = 0;
  double speedup = 1.0;      // vs the unsharded baseline of the workload
  Cost total_cost = 0;
  double cost_ratio = 1.0;   // vs the unsharded baseline of the workload
  double cross_fraction = 0;
  double intra_fraction = 1.0;
  double load_imbalance = 1.0;
};

struct WorkloadReport {
  std::string workload;
  std::string partition;
  int k = 0;
  int n = 0;
  std::size_t requests = 0;
  std::vector<Row> rows;  // rows[0] is the unsharded baseline
};

WorkloadReport run_one(const char* label, WorkloadKind kind, int n, int k,
                       ShardPartition partition) {
  const std::size_t m = bench::trace_length();
  WorkloadReport rep;
  rep.workload = label;
  rep.k = k;
  rep.partition = shard_partition_name(partition);
  rep.n = n;
  rep.requests = m;
  const Trace trace = gen_workload(kind, n, m, bench::bench_seed());

  {
    KArySplayNet baseline = KArySplayNet::balanced(k, n);
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult res = run_trace(baseline, trace);
    Row row;
    row.config = "unsharded";
    row.shards = 1;
    row.seconds = seconds_since(t0);
    row.req_per_sec = static_cast<double>(m) / row.seconds;
    row.total_cost = res.total_cost();
    rep.rows.push_back(row);
  }
  const Row base = rep.rows.front();  // copy: rows reallocates below

  for (int S : {1, 2, 4, 8, 16}) {
    if (S > n) continue;
    ShardedNetwork net = ShardedNetwork::balanced(k, n, S, partition);
    const ShardLocalityStats st = compute_shard_stats(trace, net.map());
    // Timed section covers the whole pipeline: queue partitioning plus the
    // concurrent per-shard drains.
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult res =
        run_trace_sharded(net, trace, {.threads = bench::bench_threads()});
    Row row;
    row.config = "S=" + std::to_string(S);
    row.shards = S;
    row.seconds = seconds_since(t0);
    row.req_per_sec = static_cast<double>(m) / row.seconds;
    row.speedup = base.seconds / row.seconds;
    row.total_cost = res.total_cost();
    row.cost_ratio = static_cast<double>(row.total_cost) /
                     static_cast<double>(base.total_cost);
    row.cross_fraction = m == 0 ? 0.0
                                : static_cast<double>(res.cross_shard) /
                                      static_cast<double>(m);
    row.intra_fraction = st.intra_fraction();
    row.load_imbalance = st.load_imbalance();
    rep.rows.push_back(row);
  }
  return rep;
}

void print_report(const WorkloadReport& rep) {
  std::cout << "-- " << rep.workload << " (n=" << rep.n << ", k=" << rep.k
            << ", requests=" << rep.requests << ", partition="
            << rep.partition << ") --\n";
  Table out({"config", "seconds", "req/s", "speedup", "total cost",
             "cost ratio", "cross frac", "imbalance"});
  for (const Row& r : rep.rows)
    out.add_row({r.config, fixed_cell(r.seconds, 3),
                 std::to_string(static_cast<long long>(r.req_per_sec)),
                 fixed_cell(r.speedup), std::to_string(r.total_cost),
                 fixed_cell(r.cost_ratio), fixed_cell(r.cross_fraction),
                 fixed_cell(r.load_imbalance)});
  out.print();
  std::cout << "\n";
}

void append_json(std::ostringstream& js, const WorkloadReport& rep,
                 bool last) {
  js << "    {\n      \"workload\": \"" << rep.workload
     << "\",\n      \"partition\": \"" << rep.partition
     << "\",\n      \"k\": " << rep.k << ",\n      \"n\": " << rep.n << ",\n      \"requests\": "
     << rep.requests << ",\n      \"rows\": [\n";
  for (std::size_t i = 0; i < rep.rows.size(); ++i) {
    const Row& r = rep.rows[i];
    js << "        {\"config\": \"" << r.config << "\", \"shards\": "
       << r.shards << ", \"seconds\": " << fixed_cell(r.seconds, 4)
       << ", \"req_per_sec\": " << static_cast<long long>(r.req_per_sec)
       << ", \"speedup\": " << fixed_cell(r.speedup)
       << ", \"total_cost\": " << r.total_cost
       << ", \"cost_ratio\": " << fixed_cell(r.cost_ratio)
       << ", \"cross_fraction\": " << fixed_cell(r.cross_fraction)
       << ", \"load_imbalance\": " << fixed_cell(r.load_imbalance) << "}"
       << (i + 1 < rep.rows.size() ? ",\n" : "\n");
  }
  js << "      ]\n    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== shard scaling: partitioned serving vs one SplayNet ==\n";
  std::cout << "threads: " << bench::bench_threads_resolved() << " of "
            << resolve_threads(0) << " hardware\n\n";

  // The sharding study wants production-scale node counts, not the paper's
  // per-table defaults (ProjecToR's n = 100 would leave S = 16 shards of 6
  // nodes); bench::scaled keeps --smoke CI-sized.
  const int n_big = bench::scaled(64, 10000, 10000);
  std::vector<WorkloadReport> reports;
  reports.push_back(run_one("skewed", WorkloadKind::kProjector, n_big,
                            /*k=*/2, ShardPartition::kHash));
  reports.push_back(run_one("zipf", WorkloadKind::kFacebook,
                            bench::node_count(WorkloadKind::kFacebook),
                            /*k=*/3, ShardPartition::kHash));
  reports.push_back(run_one("temporal075", WorkloadKind::kTemporal075,
                            bench::node_count(WorkloadKind::kTemporal075),
                            /*k=*/3, ShardPartition::kContiguous));
  for (const WorkloadReport& rep : reports) print_report(rep);

  std::ostringstream js;
  js << "{\n  \"bench\": \"shard_scaling\",\n  \"threads\": "
     << bench::bench_threads_resolved() << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i)
    append_json(js, reports[i], i + 1 == reports.size());
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
