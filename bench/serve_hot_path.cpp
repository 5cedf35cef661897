// Serve-loop throughput: the table1-style replay that dominates every
// Tables 1-8 run, measured in isolation. Three sections:
//   * online: KArySplayNet::serve over the HPC trace for several arities
//     (exercises lca/distance + the full rotation engine),
//   * binary: the BinarySplayNet baseline over the same trace,
//   * static: run_trace_static over a fixed full tree (pure distance
//     queries; this is what the full/optimal rows of every table cost).
// Results (requests/second and total cost) are printed and, with
// --json <path>, written as a machine-readable record; the checked-in
// BENCH_serve_hot_path.json holds the median and min/max of five runs of
// this binary before and after the latest serve-path change, per row.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/binary_splaynet.hpp"
#include "core/splaynet.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "stats/table.hpp"

namespace {

using namespace san;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string name;
  double seconds = 0;
  double req_per_sec = 0;
  Cost total_cost = 0;
};

template <typename ServeFn>
Row replay(const std::string& name, const Trace& trace, ServeFn&& serve) {
  const auto t0 = std::chrono::steady_clock::now();
  Cost total = 0;
  for (const Request& r : trace.requests) {
    const ServeResult s = serve(r.src, r.dst);
    total += s.routing_cost + s.rotations;
  }
  Row row;
  row.name = name;
  row.seconds = seconds_since(t0);
  row.req_per_sec = static_cast<double>(trace.size()) / row.seconds;
  row.total_cost = total;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);

  const int n = bench::node_count(WorkloadKind::kHpc);
  const std::size_t m = bench::trace_length();
  std::cout << "== serve() hot path: HPC replay, n=" << n << ", requests=" << m
            << " ==\n\n";
  Trace trace = gen_workload(WorkloadKind::kHpc, n, m, bench::bench_seed());

  std::vector<Row> rows;
  for (int k : {2, 3, 5, 10}) {
    KArySplayNet net = KArySplayNet::balanced(k, n);
    rows.push_back(replay("splaynet-k" + std::to_string(k), trace,
                          [&](NodeId u, NodeId v) { return net.serve(u, v); }));
  }
  {
    BinarySplayNet net(n);
    rows.push_back(replay("binary-splaynet", trace,
                          [&](NodeId u, NodeId v) { return net.serve(u, v); }));
  }
  for (int k : {2, 10}) {
    const KAryTree tree = full_kary_tree(k, n);
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult res = run_trace_static(tree, trace);
    Row row;
    row.name = "static-full-k" + std::to_string(k);
    row.seconds = seconds_since(t0);
    row.req_per_sec = static_cast<double>(m) / row.seconds;
    row.total_cost = res.total_cost();
    rows.push_back(row);
  }

  Table out({"network", "seconds", "req/s", "total cost"});
  for (const Row& r : rows)
    out.add_row({r.name, fixed_cell(r.seconds, 3),
                 std::to_string(static_cast<long long>(r.req_per_sec)),
                 std::to_string(r.total_cost)});
  out.print();

  std::ostringstream js;
  js << "{\n  \"bench\": \"serve_hot_path\",\n  \"n\": " << n
     << ",\n  \"requests\": " << m << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i)
    js << "    {\"name\": \"" << rows[i].name << "\", \"seconds\": "
       << rows[i].seconds << ", \"req_per_sec\": "
       << static_cast<long long>(rows[i].req_per_sec)
       << ", \"total_cost\": " << rows[i].total_cost << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  js << "  ]\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
