// static-optimal: the offline user. Projector-like elephant demand is
// aggregated into a DemandMatrix, the Theorem 2 DP designs the optimal
// static tree (on the Executor, two threads), and the timed section replays
// the trace over that fixed tree with run_trace_static on one caller:
// read-only KAryTree queries, zero rotations.
#include <vector>

#include "core/executor.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace san;

struct Sizes {
  int n;
  int k;
  std::size_t m;  ///< requests per demand draw
};

Sizes sizes(const RunArgs& a) {
  return a.tiny ? Sizes{64, 4, 5000} : Sizes{1024, 4, 500000};
}

/// Independent demand draws per run. One projector draw's optimal cost
/// depends on where its few heaviest pairs land, so a single draw per
/// seed spreads cost_per_req by ~12% across seeds; the mean of eight
/// spreads by a third of that. Replay speed differs between draws too
/// (two seeds of four draws each replayed 10% apart on every run), and
/// eight draws narrow that the same way.
constexpr int kDraws = 8;

/// DP threads. The DP runs as ~1000 barrier-separated rounds, so with a
/// thread on every vCPU of a shared host each round waits for whichever
/// vCPU another tenant took; two threads leave the scheduler room.
int dp_threads() { return std::min(2, resolve_threads(0)); }

/// One designed network: a trace and the optimal tree for its demand.
struct Design {
  Trace trace;
  OptimalTreeResult opt;
};

struct Setup {
  std::vector<Design> designs;
  double generate_s = 0, demand_s = 0, dp_s = 0, total_s = 0;
  std::size_t dp_rounds = 0;
  std::size_t requests = 0;
  Cost total_distance = 0;
};

Setup set_up(const Sizes& z, std::uint64_t seed) {
  Setup s;
  for (int d = 0; d < kDraws; ++d) {
    const auto t0 = Clock::now();
    Trace trace = gen_projector(z.n, z.m, seed * kDraws + d);
    const auto t1 = Clock::now();
    const DemandMatrix demand = DemandMatrix::from_trace(trace);
    demand.prewarm();
    const auto t2 = Clock::now();
    const std::size_t rounds0 = Executor::instance().rounds_dispatched();
    OptimalTreeResult opt =
        optimal_routing_based_tree(z.k, demand, dp_threads());
    const auto t3 = Clock::now();
    s.dp_rounds += Executor::instance().rounds_dispatched() - rounds0;
    s.generate_s += seconds_between(t0, t1);
    s.demand_s += seconds_between(t1, t2);
    s.dp_s += seconds_between(t2, t3);
    s.total_s += seconds_between(t0, t3);
    s.requests += trace.size();
    s.total_distance += opt.total_distance;
    s.designs.push_back({std::move(trace), std::move(opt)});
  }
  return s;
}

/// One untraced replay of every draw, each draw a chunk of `best`; returns
/// the summed result.
SimResult replay(const Setup& s, Report& report, BestTimes& best) {
  SimResult sum;
  for (std::size_t i = 0; i < s.designs.size(); ++i) {
    const Design& d = s.designs[i];
    const auto t0 = Clock::now();
    const SimResult r = run_trace_static(d.opt.tree, d.trace);
    best.record(i, seconds_between(t0, Clock::now()));
    sum.routing_cost += r.routing_cost;
    sum.requests += r.requests;
    sum.shed_requests += r.shed_requests;
  }
  report.attempt(sum.requests, static_cast<std::uint64_t>(sum.shed_requests));
  return sum;
}

/// Traced replay: the same per-request static routing run_trace_static
/// does, timed per request into the core-layer accumulators, each draw a
/// chunk of `best`.
void traced_replay(const Setup& s, Report& report, LayerAcc& acc,
                   BestTimes& best) {
  Cost routing = 0;
  Sampler path_sample(kPathSampleEvery);
  for (std::size_t i = 0; i < s.designs.size(); ++i) {
    const Design& d = s.designs[i];
    const KAryTree& tree = d.opt.tree;
    const auto t0 = Clock::now();
    for (const Request& r : d.trace.requests) {
      if (path_sample() && r.src != r.dst) {
        const auto a = Clock::now();
        const PathInfo p = tree.path_info(r.src, r.dst);
        const auto b = Clock::now();
        acc.path_ns.record(ns_between(a, b));
        acc.path_hops += static_cast<std::uint64_t>(p.distance);
        acc.depth_sum +=
            static_cast<std::uint64_t>(tree.depth(r.src) + tree.depth(r.dst));
        routing += serve_on_static_tree(tree, r.src, r.dst).routing_cost;
      } else {
        const auto a = Clock::now();
        const ServeResult sr = serve_on_static_tree(tree, r.src, r.dst);
        const auto b = Clock::now();
        acc.serve_ns.record(ns_between(a, b));
        acc.serve_cost += static_cast<std::uint64_t>(sr.routing_cost);
        routing += sr.routing_cost;
      }
    }
    best.record(i, seconds_between(t0, Clock::now()));
  }
  acc.requests += s.requests;
  acc.hops += static_cast<std::uint64_t>(routing);
  report.attempt(s.requests);
  report.check(routing == s.total_distance,
               "static-optimal: traced replay routing equals the DP total");
}

}  // namespace

std::string static_optimal_threads() {
  return "dp=" + std::to_string(dp_threads()) + " replay=1";
}

void run_static_optimal(const RunArgs& args, Report& report) {
  const Sizes z = sizes(args);
  Setup s;
  BestTimes best;
  bool routing_ok = true;
  bool shed_free = true;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // Four set-ups of ~2.4 s, eight DPs each.
  const double setup_s = set_up_and_repeat(
      budget, dp_threads(), 4,
      [&] {
        s = Setup{};  // free the previous setup before building the next
        s = set_up(z, args.seed);
        return s.total_s;
      },
      [&] {
        const SimResult r = replay(s, report, best);
        // The self-test's negative case corrupts the expected total.
        routing_ok = routing_ok && r.routing_cost ==
                                       s.total_distance + (args.tamper ? 1 : 0);
        shed_free = shed_free && r.shed_requests == 0;
      });
  bool valid = true;
  for (const Design& d : s.designs)
    valid = valid && !d.opt.tree.validate().has_value();
  report.check(valid, "static-optimal: every optimal tree passes validate()");
  report.check(routing_ok,
               "static-optimal: replay routing equals the DP total_distance");
  report.check(shed_free, "static-optimal: shed_frac == 0 (closed loop)");

  if (!args.trace) {
    report.metric("serve_rps", best.rps(s.requests), "req/s");
    report.metric("cost_per_req",
                  static_cast<double>(s.total_distance) /
                      static_cast<double>(s.requests),
                  "cost/req");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  BestTimes traced;
  LayerAcc acc;
  repeat_for(args.seconds / 2, 1,
             [&] { traced_replay(s, report, acc, traced); });
  report_core_layers(report, acc);
  report.metric("core.executor.rounds", static_cast<double>(s.dp_rounds),
                "count");
  report.metric("core.executor.round_us",
                s.dp_rounds ? s.dp_s * 1e6 / static_cast<double>(s.dp_rounds)
                            : 0.0,
                "us");
  report.metric("static_trees.dp.s", s.dp_s, "s");
  report.metric("workload.demand_matrix.s", s.demand_s, "s");
  report.metric("workload.generate.ns_per_req",
                s.generate_s * 1e9 / static_cast<double>(s.requests), "ns");
  report.metric("shed_frac", 0.0, "fraction");
  report_trace_overhead(report, s.requests, best, traced);
}

}  // namespace perfbench
