// Open-loop serving frontend: offered-load sweep — throughput ceiling and
// tail latency vs arrival rate.
//
// For each workload x sharding config, the bench first measures the
// saturation throughput (all-zero arrival schedule: the dispatcher is
// never the bottleneck), then offers Poisson load at fixed fractions of
// that ceiling plus one bursty (on-off, Pareto periods) point, and
// reports achieved rate and sojourn p50/p99/p999. The expected shape is
// the textbook open-loop curve: tails near-flat at low load, exploding as
// offered -> ceiling; bursty arrivals at half load already show the p999
// of Poisson near saturation.
//
// Workloads:
//   * zipf — stationary Facebook-like skew; the static map is already the
//     steady-state answer, rebalancing must not hurt the tail much.
//   * elephants-p4 — phase-change elephant pairs; the adaptive config
//     earns its keep by converting cross-shard traffic back to intra
//     after each phase flip, at the price of quiesce pauses in the tail.
// Configs: static sharding, and hotpair rebalancing (drift trigger).
// The checked-in BENCH_serve_frontend.json records this machine's
// numbers; --smoke shrinks everything to seconds-scale for CI.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/serve_frontend.hpp"
#include "stats/table.hpp"
#include "workload/arrival.hpp"
#include "workload/rebalance.hpp"

namespace {

using namespace san;

struct Row {
  std::string arrival;
  double load = 0.0;  // offered / saturation ceiling (0 = saturation row)
  double offered = 0.0;
  double achieved = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  Cost serve_cost = 0;
  Cost migrations = 0;
};

struct ConfigReport {
  std::string workload;
  std::string config;  // "static" | "hotpair"
  int n = 0;
  std::size_t requests = 0;
  double saturation_rate = 0.0;
  std::vector<Row> rows;  // rows[0] is the saturation run
};

Row run_point(const Trace& trace, int k, int S, const RebalanceConfig* cfg,
              ArrivalKind kind, double rate, double load) {
  ShardedNetwork net =
      ShardedNetwork::balanced(k, trace.n, S, ShardPartition::kHash);
  FrontendOptions opt;
  opt.rebalance = cfg;
  ServeFrontend frontend(net, opt);
  const auto arrivals = gen_arrival_times(
      kind, kind == ArrivalKind::kSaturation ? 0.0 : rate, trace.size(),
      bench::bench_seed());
  const FrontendResult r = frontend.run(trace, arrivals);
  Row row;
  row.arrival = arrival_kind_name(kind);
  row.load = load;
  row.offered = r.offered_rate;
  row.achieved = r.achieved_rate;
  row.p50_us = static_cast<double>(r.sojourn.p50()) / 1e3;
  row.p99_us = static_cast<double>(r.sojourn.p99()) / 1e3;
  row.p999_us = static_cast<double>(r.sojourn.p999()) / 1e3;
  row.max_us = static_cast<double>(r.sojourn.max()) / 1e3;
  row.serve_cost = r.sim.total_cost();
  row.migrations = r.sim.migrations;
  return row;
}

ConfigReport run_config(const std::string& workload, const std::string& config,
                        const Trace& trace, int k, int S,
                        const RebalanceConfig* cfg,
                        const std::vector<double>& loads) {
  ConfigReport rep;
  rep.workload = workload;
  rep.config = config;
  rep.n = trace.n;
  rep.requests = trace.size();

  // The throughput ceiling of this config, measured not assumed.
  rep.rows.push_back(
      run_point(trace, k, S, cfg, ArrivalKind::kSaturation, 0.0, 0.0));
  rep.saturation_rate = rep.rows[0].achieved;

  for (double load : loads)
    rep.rows.push_back(run_point(trace, k, S, cfg, ArrivalKind::kPoisson,
                                 load * rep.saturation_rate, load));
  // One bursty point at half load: self-similar arrivals stress the tail
  // at rates a Poisson stream absorbs without queueing.
  const double bursty_load = 0.5;
  rep.rows.push_back(run_point(trace, k, S, cfg, ArrivalKind::kBursty,
                               bursty_load * rep.saturation_rate,
                               bursty_load));
  return rep;
}

void print_report(const ConfigReport& rep) {
  std::cout << "-- " << rep.workload << " / " << rep.config
            << " (n=" << rep.n << ", requests=" << rep.requests
            << ", ceiling=" << static_cast<long long>(rep.saturation_rate)
            << " req/s) --\n";
  Table out({"arrival", "load", "offered req/s", "achieved req/s", "p50 us",
             "p99 us", "p999 us", "max us", "serve cost", "migr"});
  for (const Row& r : rep.rows)
    out.add_row({r.arrival, fixed_cell(r.load, 2),
                 std::to_string(static_cast<long long>(r.offered)),
                 std::to_string(static_cast<long long>(r.achieved)),
                 fixed_cell(r.p50_us, 1), fixed_cell(r.p99_us, 1),
                 fixed_cell(r.p999_us, 1), fixed_cell(r.max_us, 1),
                 std::to_string(r.serve_cost), std::to_string(r.migrations)});
  out.print();
  std::cout << "\n";
}

void append_json(std::ostringstream& js, const ConfigReport& rep, bool last) {
  js << "    {\n      \"workload\": \"" << rep.workload
     << "\",\n      \"config\": \"" << rep.config
     << "\",\n      \"n\": " << rep.n
     << ",\n      \"requests\": " << rep.requests
     << ",\n      \"saturation_req_per_sec\": "
     << static_cast<long long>(rep.saturation_rate)
     << ",\n      \"rows\": [\n";
  for (std::size_t i = 0; i < rep.rows.size(); ++i) {
    const Row& r = rep.rows[i];
    js << "        {\"arrival\": \"" << r.arrival << "\", \"load\": "
       << fixed_cell(r.load, 2) << ", \"offered_req_per_sec\": "
       << static_cast<long long>(r.offered) << ", \"achieved_req_per_sec\": "
       << static_cast<long long>(r.achieved) << ", \"p50_us\": "
       << fixed_cell(r.p50_us, 1) << ", \"p99_us\": "
       << fixed_cell(r.p99_us, 1) << ", \"p999_us\": "
       << fixed_cell(r.p999_us, 1) << ", \"max_us\": "
       << fixed_cell(r.max_us, 1) << ", \"serve_cost\": " << r.serve_cost
       << ", \"migrations\": " << r.migrations << "}"
       << (i + 1 < rep.rows.size() ? ",\n" : "\n");
  }
  js << "      ]\n    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== serve frontend: open-loop offered-load sweep ==\n";
  std::cout << "hardware threads: " << resolve_threads(0) << "\n\n";

  // One dispatcher plus S shard workers share the host; more shards than
  // cores just measures oversubscription, so keep S small.
  const int k = 3;
  const int S = std::clamp(resolve_threads(0) - 1, 2, 4);
  const int n = bench::scaled(64, 512, 2048);
  const std::size_t m =
      bench::scaled<std::size_t>(4000, 100000, 400000);
  const std::uint64_t seed = bench::bench_seed();
  const std::vector<double> loads =
      bench::bench_cli().smoke ? std::vector<double>{0.5, 0.9}
                               : std::vector<double>{0.25, 0.5, 0.75, 0.9};

  RebalanceConfig hotpair;
  hotpair.policy = RebalancePolicy::kHotPair;
  hotpair.epoch_requests = std::max<std::size_t>(500, m / 20);
  hotpair.max_migrations = 64;

  struct WorkloadDef {
    std::string label;
    Trace trace;
  };
  std::vector<WorkloadDef> workloads;
  workloads.push_back({"zipf", gen_facebook(n, m, seed)});
  workloads.push_back({"elephants-p4", gen_phase_elephants(n, m, 4, seed)});

  std::vector<ConfigReport> reports;
  for (const WorkloadDef& w : workloads) {
    reports.push_back(
        run_config(w.label, "static", w.trace, k, S, nullptr, loads));
    reports.push_back(
        run_config(w.label, "hotpair", w.trace, k, S, &hotpair, loads));
  }
  for (const ConfigReport& rep : reports) print_report(rep);

  std::ostringstream js;
  js << "{\n  \"bench\": \"serve_frontend\",\n  \"shards\": " << S
     << ",\n  \"k\": " << k << ",\n  \"hardware_threads\": "
     << resolve_threads(0) << ",\n  \"epoch_requests\": "
     << hotpair.epoch_requests << ",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i)
    append_json(js, reports[i], i + 1 == reports.size());
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
