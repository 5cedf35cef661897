// Streaming data-plane scaling: the memory and throughput story of the
// O(chunk) replay path at n = 10^6 nodes and 10^7-10^8 requests.
//
// Three sections:
//   * stream scale — the sharded streaming drain over an on-demand
//     workload generator at a fixed n = 10^6 while m grows 4x. The
//     resident-set delta of each run must stay flat: the pipeline's
//     working set is the network plus one chunk, never the trace.
//   * stream vs materialized — the same workload served both ways at the
//     same m. Costs must match exactly (the streamed loops are
//     bit-identical by construction); the materialized side additionally
//     holds the 8-byte-per-request trace, which is the memory the
//     streaming path deletes. The streaming run goes FIRST so the
//     process's peak-RSS watermark (VmHWM, monotonic) still shows what
//     the streamed section alone needed.
//   * window capacity — the adaptive streaming pipeline (rotating
//     hotset, n = 10^6, S = 8, hotpair policy, m = 10^6) with the
//     rebalancer's demand window capped at 4096 pairs and at the default
//     65,536. window_capacity is the window's memory bound, independent
//     of n and m; each row records the grand cost (serve + migration),
//     the migrations, the time and the RSS delta, sampled at every chunk
//     pull so the window is counted at its largest.
//
// --smoke shrinks everything to CI-sized runs; SAN_BENCH_FULL=1 raises
// the top stream length to the 10^8 class. The checked-in
// BENCH_stream_scaling.json records this machine's numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "core/executor.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/rebalance.hpp"
#include "workload/streaming.hpp"

namespace {

using namespace san;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Current resident set in bytes (/proc/self/statm), 0 where unsupported.
/// Current — not ru_maxrss — because the whole point is watching the
/// footprint stay flat as m grows, and a monotonic high-water mark cannot
/// show that.
std::size_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// Peak resident set in bytes (VmHWM), 0 where unsupported.
std::size_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

struct StreamRow {
  std::size_t m = 0;
  double seconds = 0.0;
  double req_per_sec = 0.0;
  Cost total_cost = 0;
  double rss_before_mb = 0.0;
  double rss_during_mb = 0.0;  ///< network + chunk buffers, trace-free
  double rss_delta_mb = 0.0;
};

StreamRow run_stream_once(int n, int shards, std::size_t m) {
  StreamRow row;
  row.m = m;
  row.rss_before_mb = mb(current_rss_bytes());
  ShardedNetwork net = ShardedNetwork::balanced(3, n, shards,
                                                ShardPartition::kContiguous);
  StreamingWorkload stream(WorkloadKind::kUniform, n, m, bench::bench_seed());
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace_sharded_stream(
      net, stream, {.threads = bench::bench_threads()});
  row.seconds = seconds_since(t0);
  row.req_per_sec = static_cast<double>(m) / row.seconds;
  row.total_cost = res.total_cost();
  // Sampled while the network is still alive: this is the whole working
  // set of the run.
  row.rss_during_mb = mb(current_rss_bytes());
  row.rss_delta_mb = row.rss_during_mb - row.rss_before_mb;
  return row;
}

struct HeadToHead {
  int n = 0;
  std::size_t m = 0;
  StreamRow stream;       // runs first: VmHWM still reflects it alone
  StreamRow materialized; // pays the m-record trace on top
  bool costs_match = false;
  double stream_peak_mb = 0.0;  ///< VmHWM right after the streamed run
};

HeadToHead run_head_to_head(int n, std::size_t m) {
  HeadToHead h;
  h.n = n;
  h.m = m;
  h.stream = run_stream_once(n, 8, m);
  h.stream_peak_mb = mb(peak_rss_bytes());

  StreamRow& mrow = h.materialized;
  mrow.m = m;
  mrow.rss_before_mb = mb(current_rss_bytes());
  ShardedNetwork net =
      ShardedNetwork::balanced(3, n, 8, ShardPartition::kContiguous);
  const Trace trace =
      gen_workload(WorkloadKind::kUniform, n, m, bench::bench_seed());
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res =
      run_trace_sharded(net, trace, {.threads = bench::bench_threads()});
  mrow.seconds = seconds_since(t0);
  mrow.req_per_sec = static_cast<double>(m) / mrow.seconds;
  mrow.total_cost = res.total_cost();
  mrow.rss_during_mb = mb(current_rss_bytes());
  mrow.rss_delta_mb = mrow.rss_during_mb - mrow.rss_before_mb;
  h.costs_match = res.total_cost() == h.stream.total_cost;
  return h;
}

/// Pass-through stream that samples the current RSS at every chunk pull,
/// so the peak includes the state that lives only inside the run (the
/// rebalancer's window and the planner's scratch).
class RssSampler final : public RequestStream {
 public:
  explicit RssSampler(RequestStream& inner) : inner_(inner) {}

  int n() const override { return inner_.n(); }
  std::size_t size() const override { return inner_.size(); }
  std::size_t fill(std::span<Request> out) override {
    peak_ = std::max(peak_, current_rss_bytes());
    return inner_.fill(out);
  }
  std::size_t peak() const { return peak_; }

 private:
  RequestStream& inner_;
  std::size_t peak_ = 0;
};

struct CapacityRow {
  std::size_t window_capacity = 0;
  Cost grand_cost = 0;
  Cost migrations = 0;
  double seconds = 0.0;
  double rss_delta_mb = 0.0;  ///< peak sampled RSS minus RSS before
};

CapacityRow run_window_capacity(int n, std::size_t m,
                                std::size_t window_capacity) {
  CapacityRow row;
  row.window_capacity = window_capacity;
#if defined(__GLIBC__)
  // Hand the earlier sections' freed heap back to the OS first: a run that
  // reuses retained pages would otherwise show a smaller delta.
  malloc_trim(0);
#endif
  const std::size_t before = current_rss_bytes();
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kHotPair;
  cfg.window_capacity = window_capacity;
  ShardedNetwork net =
      ShardedNetwork::balanced(3, n, 8, ShardPartition::kContiguous);
  StreamingWorkload workload(WorkloadKind::kRotatingHot, n, m,
                             bench::bench_seed());
  RssSampler stream(workload);
  const auto t0 = std::chrono::steady_clock::now();
  const SimResult res = run_trace_sharded_stream(
      net, stream, {.threads = bench::bench_threads(), .rebalance = &cfg});
  row.seconds = seconds_since(t0);
  row.grand_cost = res.grand_total_cost();
  row.migrations = res.migrations;
  row.rss_delta_mb =
      mb(std::max(stream.peak(), current_rss_bytes())) - mb(before);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== stream scaling: O(chunk) replay at n = 10^6 ==\n";
  std::cout << "threads: " << bench::bench_threads_resolved() << " of "
            << resolve_threads(0) << " hardware\n\n";

  const int n_big = bench::scaled(10000, 1'000'000, 1'000'000);
  const std::vector<std::size_t> stream_ms =
      bench::bench_cli().smoke
          ? std::vector<std::size_t>{50'000, 100'000, 200'000}
          : (bench::full_scale()
                 ? std::vector<std::size_t>{10'000'000, 30'000'000,
                                            100'000'000}
                 : std::vector<std::size_t>{2'500'000, 5'000'000,
                                            10'000'000});

  // Streaming first: every later section only raises the RSS watermark.
  std::vector<StreamRow> scale;
  for (std::size_t m : stream_ms) scale.push_back(run_stream_once(n_big, 8, m));

  Table t1({"m", "seconds", "req/s", "total cost", "rss during (MB)",
            "rss delta (MB)"});
  for (const StreamRow& r : scale)
    t1.add_row({std::to_string(r.m), fixed_cell(r.seconds, 3),
                std::to_string(static_cast<long long>(r.req_per_sec)),
                std::to_string(r.total_cost), fixed_cell(r.rss_during_mb, 1),
                fixed_cell(r.rss_delta_mb, 1)});
  std::cout << "-- streaming drain, n=" << n_big << ", S=8 (rss must stay "
            << "flat as m grows 4x) --\n";
  t1.print();
  std::cout << "\n";

  const std::size_t h2h_m = bench::scaled<std::size_t>(
      100'000, 10'000'000, 100'000'000);
  const HeadToHead h = run_head_to_head(n_big, h2h_m);
  Table t2({"path", "seconds", "req/s", "total cost", "rss delta (MB)"});
  t2.add_row({"streamed", fixed_cell(h.stream.seconds, 3),
              std::to_string(static_cast<long long>(h.stream.req_per_sec)),
              std::to_string(h.stream.total_cost),
              fixed_cell(h.stream.rss_delta_mb, 1)});
  t2.add_row(
      {"materialized", fixed_cell(h.materialized.seconds, 3),
       std::to_string(static_cast<long long>(h.materialized.req_per_sec)),
       std::to_string(h.materialized.total_cost),
       fixed_cell(h.materialized.rss_delta_mb, 1)});
  std::cout << "-- streamed vs materialized, n=" << h.n << ", m=" << h.m
            << " (costs " << (h.costs_match ? "match" : "DIVERGE")
            << "; streamed-section peak rss " << fixed_cell(h.stream_peak_mb, 1)
            << " MB) --\n";
  t2.print();
  std::cout << "\n";

  const std::size_t cap_m =
      bench::scaled<std::size_t>(100'000, 1'000'000, 1'000'000);
  std::vector<CapacityRow> caps;
  for (std::size_t capacity : {std::size_t{4096},
                               RebalanceConfig{}.window_capacity})
    caps.push_back(run_window_capacity(n_big, cap_m, capacity));
  Table t3({"window capacity", "grand total", "migrations", "seconds",
            "rss delta (MB)"});
  for (const CapacityRow& r : caps)
    t3.add_row({std::to_string(r.window_capacity),
                std::to_string(r.grand_cost), std::to_string(r.migrations),
                fixed_cell(r.seconds, 3), fixed_cell(r.rss_delta_mb, 1)});
  std::cout << "-- demand-window capacity, rotating hotset n=" << n_big
            << ", S=8, hotpair, m=" << cap_m << " streamed --\n";
  t3.print();

  std::ostringstream js;
  js << "{\n  \"bench\": \"stream_scaling\",\n  \"threads\": "
     << bench::bench_threads_resolved() << ",\n  \"stream_scale\": {\n"
     << "    \"n\": " << n_big << ",\n    \"shards\": 8,\n    \"rows\": [\n";
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const StreamRow& r = scale[i];
    js << "      {\"m\": " << r.m << ", \"seconds\": "
       << fixed_cell(r.seconds, 4) << ", \"req_per_sec\": "
       << static_cast<long long>(r.req_per_sec) << ", \"total_cost\": "
       << r.total_cost << ", \"rss_during_mb\": "
       << fixed_cell(r.rss_during_mb, 1) << ", \"rss_delta_mb\": "
       << fixed_cell(r.rss_delta_mb, 1) << "}"
       << (i + 1 < scale.size() ? ",\n" : "\n");
  }
  js << "    ]\n  },\n  \"stream_vs_materialized\": {\n    \"n\": " << h.n
     << ",\n    \"m\": " << h.m << ",\n    \"costs_match\": "
     << (h.costs_match ? "true" : "false")
     << ",\n    \"stream_peak_rss_mb\": " << fixed_cell(h.stream_peak_mb, 1)
     << ",\n    \"stream\": {\"seconds\": " << fixed_cell(h.stream.seconds, 4)
     << ", \"req_per_sec\": "
     << static_cast<long long>(h.stream.req_per_sec)
     << ", \"rss_delta_mb\": " << fixed_cell(h.stream.rss_delta_mb, 1)
     << "},\n    \"materialized\": {\"seconds\": "
     << fixed_cell(h.materialized.seconds, 4) << ", \"req_per_sec\": "
     << static_cast<long long>(h.materialized.req_per_sec)
     << ", \"rss_delta_mb\": " << fixed_cell(h.materialized.rss_delta_mb, 1)
     << "}\n  },\n  \"window_capacity\": {\n    \"n\": " << n_big
     << ",\n    \"shards\": 8,\n    \"m\": " << cap_m
     << ",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const CapacityRow& r = caps[i];
    js << "      {\"window_capacity\": " << r.window_capacity
       << ", \"grand_cost\": " << r.grand_cost << ", \"migrations\": "
       << r.migrations << ", \"seconds\": " << fixed_cell(r.seconds, 4)
       << ", \"rss_delta_mb\": " << fixed_cell(r.rss_delta_mb, 1) << "}"
       << (i + 1 < caps.size() ? ",\n" : "\n");
  }
  js << "    ]\n  }\n}\n";
  bench::write_json_result(js.str());
  return 0;
}
