// Locality-aware batch scheduling (sim/schedule.hpp) walls:
//
//   Schedule.*             config validation, engine entry checks and
//                          policy names
//   ScheduleReorder.*      the windowed reorder pass: permutation sanity,
//                          window bounding, reordered counters
//   ScheduleDifferential.* semantic locks — FIFO stays bit-identical with
//                          the config threaded through every engine; the
//                          locality cost equals the FIFO cost of the
//                          scheduler's own permutation; sharded
//                          sequential == concurrent under locality;
//                          static trees serve order-invariant totals
//   ScheduleGolden.*       locality total_cost/edge_changes rows across
//                          all 9 network types, regenerable with
//                          SAN_PRINT_GOLDENS=1
//   ScheduleFuzz.*         locality-scheduled serves keep validate()-clean
//                          trees on every engine
//   ScheduleFrontend.*     batch-reordering worker path: completion,
//                          counters, and the admission-batch combo checks
#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "static_trees/centroid_tree.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/arrival.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

constexpr std::uint64_t kSeed = 0xC0FFEE;

ScheduleConfig locality(int window = 1024) {
  return ScheduleConfig{SchedulePolicy::kLocality, window};
}

bool print_mode() {
  const char* env = std::getenv("SAN_PRINT_GOLDENS");
  return env != nullptr && env[0] == '1';
}

// ---------------------------------------------------------------- config

TEST(Schedule, ConfigRejectsNonPositiveWindowAndGroup) {
  EXPECT_THROW(locality(0).validate(), TreeError);
  EXPECT_THROW(locality(-5).validate(), TreeError);
  EXPECT_NO_THROW(locality(1).validate());
  // The bounds hold for FIFO configs too: a config is either valid or not,
  // independent of which policy it currently selects.
  ScheduleConfig fifo;
  fifo.window = 0;
  EXPECT_THROW(fifo.validate(), TreeError);
}

TEST(Schedule, EnginesRejectInvalidConfigBeforeServing) {
  const Trace t = gen_uniform(16, 10, kSeed);
  KArySplayNet net = KArySplayNet::balanced(2, 16);
  EXPECT_THROW(run_trace(net, t, locality(0)), TreeError);
  StaticTreeNetwork fixed(full_kary_tree(2, 16), "full");
  EXPECT_THROW(run_trace(fixed, t, locality(0)), TreeError);
  ShardedNetwork sharded = ShardedNetwork::balanced(2, 16, 2);
  ShardedRunOptions opt;
  opt.schedule = locality(0);
  EXPECT_THROW(run_trace_sharded(sharded, t, opt), TreeError);
  EXPECT_THROW(ServeFrontend(sharded, {.schedule = locality(0)}), TreeError);
}

TEST(Schedule, LocalityNeedsASchedulableTree) {
  // ShardedNetwork through the generic per-request loop has S trees, not
  // one; locality there must go through run_trace_sharded.
  const Trace t = gen_uniform(16, 10, kSeed);
  AnyNetwork any = ShardedNetwork::balanced(2, 16, 2);
  EXPECT_THROW(run_trace(any, t, locality()), TreeError);
  // FIFO on the same path stays supported.
  EXPECT_NO_THROW(run_trace(any, t, ScheduleConfig{}));
}

TEST(Schedule, PolicyNames) {
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kFifo), "fifo");
  EXPECT_STREQ(schedule_policy_name(SchedulePolicy::kLocality), "locality");
}

// ------------------------------------------------------------- reorder

TEST(ScheduleReorder, PermutesWithinWindowsOnly) {
  KArySplayNet net = KArySplayNet::balanced(2, 64);
  const Trace t = gen_uniform(64, 200, kSeed);
  std::vector<Request> ops = t.requests;
  const int window = 50;
  LocalityScheduler sched(locality(window));
  // Reorder window by window, as run() does, without serving (tree is
  // untouched, so the permutation is pure).
  for (std::size_t base = 0; base < ops.size(); base += window) {
    std::span<Request> win(ops.data() + base,
                           std::min<std::size_t>(window, ops.size() - base));
    sched.reorder(net.tree(), win, [](const Request& r) {
      return ScheduleEndpoints{r.src, r.dst};
    });
  }
  ASSERT_EQ(ops.size(), t.requests.size());
  // Window bounding: every op stays inside its arrival window.
  auto key = [](const Request& r) {
    return (static_cast<std::uint64_t>(r.src) << 32) |
           static_cast<std::uint32_t>(r.dst);
  };
  for (std::size_t base = 0; base < ops.size(); base += window) {
    const std::size_t end = std::min(ops.size(), base + window);
    std::vector<std::uint64_t> got, want;
    for (std::size_t i = base; i < end; ++i) {
      got.push_back(key(ops[i]));
      want.push_back(key(t.requests[i]));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "window at " << base
                         << " lost or gained requests";
  }
  EXPECT_GT(sched.reordered(), 0);
  EXPECT_LE(sched.reordered(), static_cast<Cost>(ops.size()));
}

TEST(ScheduleReorder, AlreadyClusteredInputIsAFixpoint) {
  // All requests identical: every key ties, the stable sort keeps arrival
  // order, and nothing is counted as reordered.
  KArySplayNet net = KArySplayNet::balanced(2, 32);
  std::vector<Request> ops(100, Request{5, 9});
  LocalityScheduler sched(locality(64));
  sched.reorder(net.tree(), std::span<Request>(ops), [](const Request& r) {
    return ScheduleEndpoints{r.src, r.dst};
  });
  EXPECT_EQ(sched.reordered(), 0);
}

TEST(ScheduleReorder, FifoPolicyServesInArrivalOrder) {
  KArySplayNet net = KArySplayNet::balanced(2, 32);
  const Trace t = gen_uniform(32, 64, kSeed);
  std::vector<Request> ops = t.requests;
  std::vector<Request> served;
  LocalityScheduler sched{ScheduleConfig{}};
  sched.run(
      net.tree(), std::span<Request>(ops),
      [](const Request& r) { return ScheduleEndpoints{r.src, r.dst}; },
      [&](const Request& r) { served.push_back(r); });
  ASSERT_EQ(served.size(), t.requests.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].src, t.requests[i].src);
    EXPECT_EQ(served[i].dst, t.requests[i].dst);
  }
  EXPECT_EQ(sched.reordered(), 0);
}

// -------------------------------------------------------- differential

TEST(ScheduleDifferential, FifoDefaultIsBitIdenticalOnEveryEngine) {
  // The ScheduleConfig parameter must be invisible under FIFO: identical
  // results with and without it, on every replay engine.
  const int n = 128;
  const Trace t = gen_workload(WorkloadKind::kFacebook, n, 4000, kSeed);
  {
    KArySplayNet a = KArySplayNet::balanced(3, n);
    KArySplayNet b = KArySplayNet::balanced(3, n);
    const SimResult ra = run_trace(a, t);
    const SimResult rb = run_trace(b, t, ScheduleConfig{});
    EXPECT_EQ(ra.total_cost(), rb.total_cost());
    EXPECT_EQ(ra.edge_changes, rb.edge_changes);
    EXPECT_EQ(rb.reordered_requests, 0);
  }
  {
    ShardedNetwork a = ShardedNetwork::balanced(3, n, 4);
    ShardedNetwork b = ShardedNetwork::balanced(3, n, 4);
    const SimResult ra = run_trace_sharded(a, t);
    ShardedRunOptions opt;
    opt.schedule = ScheduleConfig{};
    const SimResult rb = run_trace_sharded(b, t, opt);
    EXPECT_EQ(ra.total_cost(), rb.total_cost());
    EXPECT_EQ(ra.cross_shard, rb.cross_shard);
    EXPECT_EQ(rb.reordered_requests, 0);
  }
  {
    const KAryTree tree = full_kary_tree(3, n);
    StaticTreeNetwork fixed(tree, "full");
    const SimResult rb = run_trace(fixed, t, ScheduleConfig{});
    EXPECT_EQ(run_trace_static(tree, t).routing_cost, rb.routing_cost);
    EXPECT_EQ(rb.reordered_requests, 0);
  }
}

TEST(ScheduleDifferential, LocalityCostIsTheFifoCostOfItsOwnPermutation) {
  // The scheduler's contract: reordering fully determines the cost. Replay
  // the reorder pass manually (reorder window, then plain sequential
  // serves) and demand bit-equality with the engine's locality run.
  const int n = 256;
  const Trace t = gen_workload(WorkloadKind::kProjector, n, 5000, kSeed);
  const ScheduleConfig cfg = locality(192);

  KArySplayNet engine = KArySplayNet::balanced(2, n);
  const SimResult via_engine = run_trace(engine, t, cfg);

  KArySplayNet manual = KArySplayNet::balanced(2, n);
  SimResult by_hand;
  std::vector<Request> buf = t.requests;
  LocalityScheduler sched(cfg);
  const auto resolve = [](const Request& r) {
    return ScheduleEndpoints{r.src, r.dst};
  };
  // Same chunking as run_trace_stream, same windows as run(): reorder one
  // window against the current tree, then serve it straight through.
  for (std::size_t cb = 0; cb < buf.size(); cb += kStreamChunkRequests) {
    const std::size_t ce = std::min(buf.size(), cb + kStreamChunkRequests);
    for (std::size_t wb = cb; wb < ce;
         wb += static_cast<std::size_t>(cfg.window)) {
      const std::size_t we =
          std::min(ce, wb + static_cast<std::size_t>(cfg.window));
      std::span<Request> win(buf.data() + wb, we - wb);
      sched.reorder(manual.tree(), win, resolve);
      for (const Request& r : win) {
        const ServeResult s = manual.serve(r.src, r.dst);
        by_hand.routing_cost += s.routing_cost;
        by_hand.rotation_count += s.rotations;
        by_hand.edge_changes += s.edge_changes;
      }
    }
  }
  EXPECT_EQ(via_engine.routing_cost, by_hand.routing_cost);
  EXPECT_EQ(via_engine.rotation_count, by_hand.rotation_count);
  EXPECT_EQ(via_engine.edge_changes, by_hand.edge_changes);
  EXPECT_EQ(via_engine.reordered_requests, sched.reordered());
  EXPECT_GT(via_engine.reordered_requests, 0);
}

TEST(ScheduleDifferential, ShardedLocalitySequentialMatchesConcurrent) {
  const int n = 240;
  for (WorkloadKind kind :
       {WorkloadKind::kFacebook, WorkloadKind::kSequentialScan}) {
    const Trace t = gen_workload(kind, n, 6000, kSeed);
    ShardedNetwork seq = ShardedNetwork::balanced(3, n, 5);
    ShardedNetwork conc = ShardedNetwork::balanced(3, n, 5);
    ShardedRunOptions sopt;
    sopt.threads = 1;
    sopt.schedule = locality(128);
    ShardedRunOptions copt;
    copt.threads = 4;
    copt.schedule = locality(128);
    const SimResult rs = run_trace_sharded(seq, t, sopt);
    const SimResult rc = run_trace_sharded(conc, t, copt);
    EXPECT_EQ(rs.routing_cost, rc.routing_cost) << workload_name(kind);
    EXPECT_EQ(rs.rotation_count, rc.rotation_count) << workload_name(kind);
    EXPECT_EQ(rs.edge_changes, rc.edge_changes) << workload_name(kind);
    EXPECT_EQ(rs.reordered_requests, rc.reordered_requests)
        << workload_name(kind);
    EXPECT_GT(rs.reordered_requests, 0) << workload_name(kind);
  }
}

TEST(ScheduleDifferential, StaticTreeCostIsOrderInvariant) {
  // No rotations => permutation cannot change the total: locality must
  // reproduce the FIFO routing cost exactly while actually reordering.
  const int n = 200;
  const Trace t = gen_workload(WorkloadKind::kUniform, n, 4000, kSeed);
  for (const KAryTree& tree : {full_kary_tree(3, n), centroid_kary_tree(3, n)}) {
    StaticTreeNetwork fixed(tree, "static");
    const SimResult fifo = run_trace_static(tree, t);
    const SimResult loc = run_trace(fixed, t, locality(256));
    EXPECT_EQ(fifo.routing_cost, loc.routing_cost);
    EXPECT_EQ(fifo.requests, loc.requests);
    EXPECT_GT(loc.reordered_requests, 0);
  }
}

// -------------------------------------------------------------- golden

// Locality-scheduled totals across every network type, kN/kM/kSeed chosen
// to match test_golden_costs.cpp so the FIFO columns there and these rows
// describe the same traces. Regenerate with
//   SAN_PRINT_GOLDENS=1 ./build/test_schedule
// after an intentional semantic change only. Same libstdc++ determinism
// caveat as the FIFO goldens.
constexpr int kGN = 32;
constexpr std::size_t kGM = 500;

struct NetworkSpec {
  const char* name;
  AnyNetwork (*make)(const Trace& trace);
};

const NetworkSpec kNetworks[] = {
    {"splay-k2",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(2, kGN);
     }},
    {"splay-k3",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(3, kGN);
     }},
    {"splay-k5",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(5, kGN);
     }},
    {"semi-splay-k3",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(3, kGN, RotationPolicy{},
                                     SplayMode::kSemiSplayOnly);
     }},
    {"centroid-k3",
     [](const Trace&) -> AnyNetwork {
       return CentroidSplayNet(3, kGN);
     }},
    {"binary",
     [](const Trace&) -> AnyNetwork { return BinarySplayNet(kGN); }},
    {"static-full-k3",
     [](const Trace&) -> AnyNetwork {
       return StaticTreeNetwork(full_kary_tree(3, kGN), "full-k3");
     }},
    {"static-centroid-k3",
     [](const Trace&) -> AnyNetwork {
       return StaticTreeNetwork(centroid_kary_tree(3, kGN), "centroid-k3");
     }},
    {"static-optimal-k3",
     [](const Trace& trace) -> AnyNetwork {
       return StaticTreeNetwork(
           optimal_routing_based_tree(3, DemandMatrix::from_trace(trace), 1)
               .tree,
           "optimal-k3");
     }},
};

struct Golden {
  const char* workload;
  const char* network;
  Cost total_cost;
  Cost edge_changes;
};

const Golden kLocalityGoldens[] = {
    {"Facebook", "splay-k2", 2712, 7330},
    {"Facebook", "splay-k3", 2329, 7164},
    {"Facebook", "splay-k5", 2138, 6526},
    {"Facebook", "semi-splay-k3", 2819, 8270},
    {"Facebook", "centroid-k3", 2375, 3178},
    {"Facebook", "binary", 2718, 7302},
    {"Facebook", "static-full-k3", 1824, 0},
    {"Facebook", "static-centroid-k3", 2323, 0},
    {"Facebook", "static-optimal-k3", 1095, 0},
    {"SequentialScan", "splay-k2", 768, 698},
    {"SequentialScan", "splay-k3", 1187, 2220},
    {"SequentialScan", "splay-k5", 1192, 2202},
    {"SequentialScan", "semi-splay-k3", 1283, 2392},
    {"SequentialScan", "centroid-k3", 1231, 1976},
    {"SequentialScan", "binary", 741, 618},
    {"SequentialScan", "static-full-k3", 918, 0},
    {"SequentialScan", "static-centroid-k3", 920, 0},
    {"SequentialScan", "static-optimal-k3", 500, 0},
};

TEST(ScheduleGolden, LocalityOnEveryNetworkType) {
  const ScheduleConfig cfg = locality(64);
  std::vector<Golden> measured;
  for (WorkloadKind kind :
       {WorkloadKind::kFacebook, WorkloadKind::kSequentialScan}) {
    const Trace trace = gen_workload(kind, kGN, kGM, kSeed);
    for (const NetworkSpec& spec : kNetworks) {
      AnyNetwork net = spec.make(trace);
      const SimResult res = run_trace(net, trace, cfg);
      measured.push_back(
          {workload_name(kind), spec.name, res.total_cost(), res.edge_changes});
    }
  }
  if (print_mode()) {
    for (const Golden& g : measured)
      std::printf("    {\"%s\", \"%s\", %lld, %lld},\n", g.workload, g.network,
                  static_cast<long long>(g.total_cost),
                  static_cast<long long>(g.edge_changes));
    GTEST_SKIP() << "printed " << measured.size() << " locality golden rows";
  }
  ASSERT_EQ(measured.size(), std::size(kLocalityGoldens))
      << "grid changed; regenerate kLocalityGoldens";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_STREQ(measured[i].workload, kLocalityGoldens[i].workload);
    EXPECT_STREQ(measured[i].network, kLocalityGoldens[i].network);
    EXPECT_EQ(measured[i].total_cost, kLocalityGoldens[i].total_cost)
        << measured[i].workload << " / " << measured[i].network;
    EXPECT_EQ(measured[i].edge_changes, kLocalityGoldens[i].edge_changes)
        << measured[i].workload << " / " << measured[i].network;
  }
}

// ---------------------------------------------------------------- fuzz

TEST(ScheduleFuzz, LocalityKeepsTreesValidateClean) {
  std::mt19937_64 rng(0xF00D);
  for (int round = 0; round < 8; ++round) {
    const int n = 16 + static_cast<int>(rng() % 200);
    const std::size_t m = 500 + rng() % 3000;
    const int window = 1 + static_cast<int>(rng() % 300);
    const auto kind = (round % 2 == 0) ? WorkloadKind::kFacebook
                                       : WorkloadKind::kBitReversal;
    const Trace t = gen_workload(kind, n, m, rng());
    const ScheduleConfig cfg = locality(window);

    KArySplayNet plain = KArySplayNet::balanced(2 + round % 3, n);
    run_trace(plain, t, cfg);
    EXPECT_FALSE(plain.tree().validate().has_value()) << "round " << round;

    ShardedNetwork sharded = ShardedNetwork::balanced(3, n, 1 + round % 4);
    ShardedRunOptions opt;
    opt.schedule = cfg;
    run_trace_sharded(sharded, t, opt);
    for (int s = 0; s < sharded.num_shards(); ++s)
      EXPECT_FALSE(sharded.shard(s).tree().validate().has_value())
          << "round " << round << " shard " << s;
  }
}

// ------------------------------------------------------------ frontend

TEST(ScheduleFrontend, LocalityServesEverythingAndKeepsShardsValid) {
  const int n = 120;
  const std::size_t m = 8000;
  const Trace t = gen_workload(WorkloadKind::kFacebook, n, m, kSeed);
  const std::vector<std::uint64_t> arrivals(m, 0);  // saturation
  for (int S : {1, 3}) {
    ShardedNetwork net = ShardedNetwork::balanced(2, n, S);
    ServeFrontend fe(net, {.schedule = locality(64)});
    const FrontendResult r = fe.run(t, arrivals);
    EXPECT_EQ(r.sim.requests, m) << "S=" << S;
    EXPECT_GT(r.sim.reordered_requests, 0) << "S=" << S;
    EXPECT_GT(r.sim.routing_cost, 0);
    EXPECT_EQ(r.sojourn.count(), m) << "every request must complete";
    for (int s = 0; s < net.num_shards(); ++s)
      EXPECT_FALSE(net.shard(s).tree().validate().has_value()) << s;
  }
}

}  // namespace
}  // namespace san
