// online-seqscan: one closed-loop caller serving the first quarter of a
// sequential scan lap on a binary (k = 2) KArySplayNet over 10^5 nodes,
// short enough for a run to repeat it many times. The splay tree degrades
// into deep paths while the paper's cost per request stays near 4.2, so
// wall time here is the O(depth) path_info walk against an O(distance)
// cost model, on a working set larger than L2.
#include <optional>
#include <vector>

#include "core/splaynet.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace san;

struct Sizes {
  int n;
  std::size_t m;
};

Sizes sizes(const RunArgs& a) {
  return a.tiny ? Sizes{512, 4000} : Sizes{100000, 25000};
}

constexpr int kArity = 2;

struct Counters {
  Cost routing = 0;
  Cost rotations = 0;
  Cost edge_changes = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

/// Requests per chunk of BestTimes: a lap is a hundred chunks of a few ms.
constexpr std::size_t kChunk = 1000;

/// One closed-loop pass on a fresh copy of the initial network, each
/// kChunk consecutive requests a chunk of `best`; returns the final network.
KArySplayNet serve_pass(const KArySplayNet& initial, const Trace& trace,
                        Counters& c, BestTimes& best) {
  KArySplayNet net = initial;
  const std::size_t m = trace.size();
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < m; ++i) {
    const Request& r = trace.requests[i];
    const ServeResult s = net.serve(r.src, r.dst);
    c.routing += s.routing_cost;
    c.rotations += s.rotations;
    c.edge_changes += s.edge_changes;
    if ((i + 1) % kChunk == 0 || i + 1 == m) {
      const auto t1 = Clock::now();
      best.record(i / kChunk, seconds_between(t0, t1));
      t0 = t1;
    }
  }
  return net;
}

/// The same loop with the core layers timed per request.
void traced_pass(const KArySplayNet& initial, const Trace& trace, Counters& c,
                 LayerAcc& acc, BestTimes& best) {
  KArySplayNet net = initial;
  Sampler path_sample(kPathSampleEvery);
  const std::size_t m = trace.size();
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < m; ++i) {
    const Request& r = trace.requests[i];
    ServeResult s;
    if (path_sample() && r.src != r.dst) {
      const auto a = Clock::now();
      const PathInfo p = net.tree().path_info(r.src, r.dst);
      const auto b = Clock::now();
      acc.path_ns.record(ns_between(a, b));
      acc.path_hops += static_cast<std::uint64_t>(p.distance);
      acc.depth_sum += static_cast<std::uint64_t>(net.tree().depth(r.src) +
                                                  net.tree().depth(r.dst));
      s = net.serve(r.src, r.dst);
    } else {
      const auto a = Clock::now();
      s = net.serve(r.src, r.dst);
      const auto b = Clock::now();
      acc.serve_ns.record(ns_between(a, b));
      acc.serve_cost += static_cast<std::uint64_t>(s.routing_cost + s.rotations);
      acc.serve_rotations += static_cast<std::uint64_t>(s.rotations);
    }
    c.routing += s.routing_cost;
    c.rotations += s.rotations;
    c.edge_changes += s.edge_changes;
    if ((i + 1) % kChunk == 0 || i + 1 == m) {
      const auto t1 = Clock::now();
      best.record(i / kChunk, seconds_between(t0, t1));
      t0 = t1;
    }
  }
  acc.requests += m;
  acc.hops += static_cast<std::uint64_t>(c.routing);
  acc.rotations += static_cast<std::uint64_t>(c.rotations);
  acc.edge_changes += static_cast<std::uint64_t>(c.edge_changes);
}

}  // namespace

std::string online_seqscan_threads() { return "serve=1"; }

void run_online_seqscan(const RunArgs& args, Report& report) {
  const Sizes z = sizes(args);
  Trace trace;
  double generate_s = 0;
  std::optional<KArySplayNet> initial;
  std::optional<KArySplayNet> last;

  // Reps must agree on every deterministic counter; the self-test's
  // negative case corrupts the reference.
  std::optional<Counters> first;
  bool deterministic = true;
  BestTimes best;
  const auto agree = [&](const Counters& c) {
    if (!first) first = c;
    Counters want = *first;
    if (args.tamper) ++want.rotations;
    deterministic = deterministic && c == want;
    report.attempt(z.m);
  };
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // Set-ups of ~20 ms.
  const double setup_s = set_up_and_repeat(
      budget, 1, 50,
      [&] {
        // Free the previous inputs first, so that repeating set-up reuses
        // their memory instead of growing the heap.
        initial.reset();
        trace = Trace{};
        const auto t0 = Clock::now();
        trace = gen_sequential_scan(z.n, z.m, args.seed);
        const auto t1 = Clock::now();
        initial.emplace(KArySplayNet::balanced(kArity, z.n));
        const auto t2 = Clock::now();
        generate_s = seconds_between(t0, t1);
        return seconds_between(t0, t2);
      },
      [&] {
        Counters c;
        last.reset();
        last.emplace(serve_pass(*initial, trace, c, best));
        agree(c);
      });
  report.check(!last->tree().validate().has_value(),
               "online-seqscan: final tree passes validate()");

  if (!args.trace) {
    report.check(deterministic,
                 "online-seqscan: counters identical across reps of one seed");
    report.metric("serve_rps", best.rps(z.m), "req/s");
    report.metric("cost_per_req",
                  static_cast<double>(first->routing + first->rotations) /
                      static_cast<double>(z.m),
                  "cost/req");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  BestTimes traced;
  LayerAcc acc;
  repeat_for(args.seconds / 2, 1, [&] {
    Counters c;
    traced_pass(*initial, trace, c, acc, traced);
    agree(c);
  });
  report.check(deterministic,
               "online-seqscan: traced and untraced counters identical");
  report_core_layers(report, acc);
  report.metric("workload.generate.ns_per_req",
                generate_s * 1e9 / static_cast<double>(z.m), "ns");
  report.metric("shed_frac", 0.0, "fraction");
  report_trace_overhead(report, z.m, best, traced);
}

}  // namespace perfbench
