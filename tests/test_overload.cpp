// Overload-control test wall for the open-loop frontend: shed-free runs
// bit-match the lossless golden, the token-bucket throttle is a
// deterministic function of the arrival schedule, deadline-expired
// requests never mutate a tree, degraded runs conserve every request
// (served + shed == offered), backpressure is visible even in the
// lossless mode, and the seeded chaos generator emits valid, replayable
// fault scripts that the frontend survives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

std::vector<std::uint64_t> saturation(std::size_t m) {
  return gen_arrival_times(ArrivalKind::kSaturation, 0.0, m, 0);
}

// Acceptance (ISSUE): a run in which the overload plane never fires is
// bit-identical to the lossless engine. kShed with a queue deep enough to
// hold the whole trace cannot drop anything, so at S = 1 its costs must
// bit-match closed-loop batch replay exactly like the kBlock golden.
TEST(Overload, ShedFreeRunBitMatchesBatchReplay) {
  const int n = 64;
  const std::size_t m = 3000;
  const Trace trace = gen_workload(WorkloadKind::kTemporal05, n, m, 0xBEEF);
  ShardedNetwork batch_net = ShardedNetwork::balanced(3, n, 1);
  const SimResult batch =
      run_trace_sharded(batch_net, trace, {.threads = 1});

  ShardedNetwork net = ShardedNetwork::balanced(3, n, 1);
  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kShed;
  opt.queue_capacity = m;  // nothing can ever be dropped
  ServeFrontend fe(net, opt);
  const FrontendResult live = fe.run(trace, saturation(m));

  EXPECT_EQ(live.sim.shed_requests, 0);
  EXPECT_EQ(live.shed.count(), 0u);
  EXPECT_EQ(live.sojourn.count(), m);
  EXPECT_EQ(live.sim.routing_cost, batch.routing_cost);
  EXPECT_EQ(live.sim.rotation_count, batch.rotation_count);
  EXPECT_EQ(live.sim.edge_changes, batch.edge_changes);
  EXPECT_EQ(live.sim.total_cost(), batch.total_cost());
}

// The token bucket refills from the *intended-arrival* clock. Under a
// saturation schedule that clock never advances, so exactly the initial
// burst is admitted — a fully deterministic admit/shed pattern,
// reproducible run over run.
TEST(Overload, TokenBucketIsDeterministicGivenTheSchedule) {
  const int n = 48;
  const std::size_t m = 4000;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, m, 5);
  SimResult runs[2];
  for (int i = 0; i < 2; ++i) {
    ShardedNetwork net = ShardedNetwork::balanced(2, n, 1);
    FrontendOptions opt;
    opt.admit_rate = 1e6;
    ServeFrontend fe(net, opt);
    const FrontendResult res = fe.run(trace, saturation(m));
    runs[i] = res.sim;
    EXPECT_EQ(res.sojourn.count(), 64u) << "run " << i;
    EXPECT_EQ(res.shed.count(), m - 64) << "run " << i;
  }
  EXPECT_EQ(runs[0].shed_throttled, static_cast<Cost>(m - 64));
  EXPECT_EQ(runs[0].shed_requests, runs[1].shed_requests);
  EXPECT_EQ(runs[0].shed_throttled, runs[1].shed_throttled);
  EXPECT_EQ(runs[0].routing_cost, runs[1].routing_cost);
  EXPECT_EQ(runs[0].rotation_count, runs[1].rotation_count);
}

// Acceptance (ISSUE): deadline-expired requests never mutate the tree.
// With a nanosecond budget every request is dead on arrival, so the run
// must end with zero serve cost and the shards bit-identical to their
// initial state.
TEST(Overload, DeadlineExpiredRequestsNeverTouchTheTrees) {
  const int n = 64;
  const std::size_t m = 2000;
  const Trace trace = gen_workload(WorkloadKind::kHpc, n, m, 77);
  ShardedNetwork net = ShardedNetwork::balanced(2, n, 2);
  std::vector<std::string> before;
  for (int s = 0; s < net.num_shards(); ++s)
    before.push_back(net.snapshot_shard(s));

  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kDeadline;
  opt.deadline_ms = 1e-6;  // 1 ns: dead before the dispatcher can route it
  ServeFrontend fe(net, opt);
  const FrontendResult res = fe.run(trace, saturation(m));

  EXPECT_EQ(res.sojourn.count(), 0u);
  EXPECT_EQ(res.sim.shed_requests, static_cast<Cost>(m));
  EXPECT_EQ(res.sim.deadline_expired, static_cast<Cost>(m));
  EXPECT_EQ(res.shed.count(), m);
  EXPECT_EQ(res.sim.routing_cost, 0);
  EXPECT_EQ(res.sim.rotation_count, 0);
  EXPECT_EQ(res.sim.edge_changes, 0);
  for (int s = 0; s < net.num_shards(); ++s)
    EXPECT_EQ(net.snapshot_shard(s), before[static_cast<std::size_t>(s)])
        << "shard " << s << " mutated by expired requests";
}

// Degradation conservation: under genuine overload (tiny queues, tiny
// mailboxes, aggressive breaker, saturation arrivals) every offered
// request is either served or accounted shed — nothing lost, nothing
// double-counted — and the shards stay structurally valid.
TEST(Overload, ShedUnderOverloadConservesEveryRequest) {
  const int n = 96;
  const std::size_t m = 20000;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, m, 42);
  ShardedNetwork net = ShardedNetwork::balanced(2, n, 4);
  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kShed;
  opt.queue_capacity = 16;
  opt.mailbox_capacity = 8;
  opt.handover_retries = 1;
  opt.breaker_threshold = 2;
  ServeFrontend fe(net, opt);
  const FrontendResult res = fe.run(trace, saturation(m));

  EXPECT_EQ(res.sim.requests, m);
  EXPECT_EQ(res.sojourn.count() + static_cast<std::size_t>(
                                      res.sim.shed_requests),
            m);
  EXPECT_EQ(res.shed.count(),
            static_cast<std::size_t>(res.sim.shed_requests));
  EXPECT_EQ(res.sim.shed_requests,
            res.sim.shed_queue_full + res.sim.shed_throttled +
                res.sim.deadline_expired + res.sim.cross_shed);
  EXPECT_GE(res.sim.queue_full_blocks, res.sim.shed_queue_full);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

// A run that reaches the circuit breaker every time. Every request is
// admitted (the main queues hold the whole trace), so the pressure lands
// on the one-slot handover mailboxes: one failed retry trips the target
// shard's breaker. No barrier runs, so more trips than shards means a
// half-open probe closed a breaker in between.
TEST(Overload, BreakerTripsAndRecoversUnderHandoverPressure) {
  const int n = 96, S = 4;
  const std::size_t m = 20000;
  const Trace trace = gen_workload(WorkloadKind::kUniform, n, m, 42);
  ShardedNetwork net = ShardedNetwork::balanced(2, n, S);
  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kShed;
  opt.queue_capacity = m;
  opt.mailbox_capacity = 1;
  opt.handover_retries = 1;
  opt.breaker_threshold = 1;
  ServeFrontend fe(net, opt);
  const FrontendResult res = fe.run(trace, saturation(m));

  EXPECT_EQ(res.sim.shed_queue_full, 0);
  EXPECT_GT(res.sim.breaker_trips, S);
  EXPECT_GE(res.sim.cross_shed, res.sim.breaker_trips);
  EXPECT_EQ(res.sim.requests, m);
  EXPECT_EQ(res.sojourn.count() + static_cast<std::size_t>(
                                      res.sim.shed_requests),
            m);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

// The lossless mode is no longer silent about saturation: a full main
// queue still blocks the dispatcher, but every such stall now lands in
// queue_full_blocks.
TEST(Overload, BlockModeCountsFullQueueStalls) {
  const int n = 48;
  const std::size_t m = 2000;
  const Trace trace = gen_workload(WorkloadKind::kTemporal09, n, m, 3);
  ShardedNetwork net = ShardedNetwork::balanced(2, n, 1);
  FrontendOptions opt;
  opt.queue_capacity = 1;
  ServeFrontend fe(net, opt);
  const FrontendResult res = fe.run(trace, saturation(m));
  EXPECT_EQ(res.sojourn.count(), m);  // still lossless
  EXPECT_EQ(res.sim.shed_requests, 0);
  EXPECT_GT(res.sim.queue_full_blocks, 0);
}

// Scripted queue pressure under the shed policy: the collapsed inbox
// window may drop requests, but conservation and tree validity hold, and
// the event is counted.
TEST(Overload, QueuePressureWindowDegradesGracefully) {
  const int n = 64;
  const std::size_t m = 8000;
  const Trace trace = gen_workload(WorkloadKind::kTemporal05, n, m, 9);
  FaultPlan plan;
  plan.kills = {{1000, 0, FaultKind::kQueuePressure}};
  ShardedNetwork net = ShardedNetwork::balanced(2, n, 2);
  FrontendOptions opt;
  opt.queue_policy = QueuePolicy::kShed;
  opt.queue_capacity = 64;
  opt.faults = &plan;
  ServeFrontend fe(net, opt);
  const FrontendResult res = fe.run(trace, saturation(m));
  EXPECT_EQ(res.sim.queue_pressure_events, 1);
  EXPECT_EQ(res.sojourn.count() + static_cast<std::size_t>(
                                      res.sim.shed_requests),
            m);
  for (int s = 0; s < net.num_shards(); ++s) {
    const auto err = net.shard(s).tree().validate();
    ASSERT_FALSE(err.has_value()) << "shard " << s << ": " << *err;
  }
}

// Option validation of the overload plane.
TEST(Overload, RejectsBadOverloadOptions) {
  ShardedNetwork net = ShardedNetwork::balanced(2, 32, 2);
  {
    FrontendOptions opt;
    opt.queue_policy = QueuePolicy::kDeadline;  // no deadline_ms
    EXPECT_THROW(ServeFrontend(net, opt), TreeError);
  }
  {
    FrontendOptions opt;
    opt.deadline_ms = 5.0;  // deadline without the deadline policy
    EXPECT_THROW(ServeFrontend(net, opt), TreeError);
  }
  {
    FrontendOptions opt;
    opt.admit_rate = -1.0;
    EXPECT_THROW(ServeFrontend(net, opt), TreeError);
  }
  {
    FrontendOptions opt;
    opt.handover_retries = -1;
    EXPECT_THROW(ServeFrontend(net, opt), TreeError);
  }
  {
    FrontendOptions opt;
    opt.breaker_threshold = 0;
    EXPECT_THROW(ServeFrontend(net, opt), TreeError);
  }
}

TEST(Overload, QueuePolicyNames) {
  EXPECT_STREQ(queue_policy_name(QueuePolicy::kBlock), "block");
  EXPECT_STREQ(queue_policy_name(QueuePolicy::kShed), "shed");
  EXPECT_STREQ(queue_policy_name(QueuePolicy::kDeadline), "deadline");
}

// ---- chaos mode --------------------------------------------------------

// The chaos generator is a pure function of (seed, shards, m): same
// inputs, same plan; the plan is always valid, in range, and mixes kinds.
TEST(Chaos, GeneratorIsDeterministicAndValid) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    const FaultPlan a = gen_chaos_plan(seed, 4, 10000);
    const FaultPlan b = gen_chaos_plan(seed, 4, 10000);
    ASSERT_EQ(a.kills.size(), b.kills.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.kills.size(); ++i)
      EXPECT_EQ(a.kills[i], b.kills[i]) << "seed " << seed << " event " << i;
    EXPECT_NO_THROW(a.validate());
    EXPECT_GE(a.kills.size(), 2u);
    EXPECT_LE(a.kills.size(), 6u);
    for (const FaultEvent& ev : a.kills) {
      EXPECT_GT(ev.at_request, 0u);
      EXPECT_LT(ev.at_request, 10000u);
      EXPECT_GE(ev.shard, 0);
      EXPECT_LT(ev.shard, 4);
    }
  }
  // Different inputs produce different scripts (any one differing event
  // suffices; identical plans across all of these would be astonishing).
  const FaultPlan p1 = gen_chaos_plan(1, 4, 10000);
  const FaultPlan p2 = gen_chaos_plan(2, 4, 10000);
  const FaultPlan p3 = gen_chaos_plan(1, 8, 10000);
  EXPECT_TRUE(p1.kills != p2.kills || p1.kills != p3.kills);
  EXPECT_THROW(gen_chaos_plan(7, 0, 100), TreeError);
  EXPECT_THROW(gen_chaos_plan(7, 2, 1), TreeError);
}

// Pins the generator's stream: the literal event lists below are what the
// splitmix64 draws of these (seed, shards, m) inputs produce. Any change
// to the seeding, the PRNG or the order of draws shows up here.
TEST(Chaos, PlanIsPinned) {
  constexpr FaultKind kKill = FaultKind::kShardKill;
  constexpr FaultKind kWorker = FaultKind::kWorkerKill;
  constexpr FaultKind kPressure = FaultKind::kQueuePressure;
  struct Case {
    std::uint64_t seed;
    int shards;
    std::size_t m;
    std::vector<FaultEvent> events;
  };
  const std::vector<Case> cases = {
      {0, 4, 10000,
       {{2467, 1, kKill},
        {3961, 1, kKill},
        {5331, 3, kKill},
        {6851, 0, kPressure},
        {8245, 3, kPressure}}},
      {42, 3, 9000,
       {{1951, 1, kKill},
        {3392, 0, kKill},
        {8307, 0, kWorker},
        {8658, 2, kWorker}}},
      {0xDEADBEEFull, 8, 1000000,
       {{100536, 1, kKill}, {450567, 7, kPressure}}},
      {7, 1, 2, {{1, 0, kKill}, {1, 0, kPressure}, {1, 0, kPressure}}},
  };
  for (const Case& c : cases)
    EXPECT_EQ(gen_chaos_plan(c.seed, c.shards, c.m).kills, c.events)
        << "seed " << c.seed << " shards " << c.shards << " m " << c.m;
}

// A chaos script drives the full frontend recovery machinery and the run
// still conserves every request under the lossless policy.
TEST(Chaos, FrontendSurvivesChaosPlans) {
  const int n = 96, S = 3;
  const std::size_t m = 9000;
  const Trace trace = gen_workload(WorkloadKind::kPhaseElephants, n, m, 21);
  for (std::uint64_t seed : {3ull, 11ull}) {
    const FaultPlan plan = gen_chaos_plan(seed, S, m);
    ShardedNetwork net = ShardedNetwork::balanced(2, n, S);
    FrontendOptions opt;
    opt.faults = &plan;
    ServeFrontend fe(net, opt);
    const FrontendResult res = fe.run(trace, saturation(m));
    EXPECT_EQ(res.sojourn.count(), m) << "seed " << seed;
    EXPECT_EQ(res.sim.shed_requests, 0) << "seed " << seed;
    EXPECT_EQ(res.sim.faults_injected + res.sim.worker_kills +
                  res.sim.queue_pressure_events,
              static_cast<Cost>(plan.kills.size()))
        << "seed " << seed;
    for (int s = 0; s < net.num_shards(); ++s) {
      const auto err = net.shard(s).tree().validate();
      ASSERT_FALSE(err.has_value())
          << "seed " << seed << " shard " << s << ": " << *err;
    }
  }
}

// CLI fault scripts accept kind prefixes and reject unknown kinds.
TEST(Chaos, ParseFaultPlanKindPrefixes) {
  const FaultPlan plan = parse_fault_plan("50@2,w:60@0,q:80@1,k:90@3");
  ASSERT_EQ(plan.kills.size(), 4u);
  EXPECT_EQ(plan.kills[0].kind, FaultKind::kShardKill);
  EXPECT_EQ(plan.kills[1].kind, FaultKind::kWorkerKill);
  EXPECT_EQ(plan.kills[2].kind, FaultKind::kQueuePressure);
  EXPECT_EQ(plan.kills[3].kind, FaultKind::kShardKill);
  EXPECT_EQ(plan.kills[1].at_request, 60u);
  EXPECT_EQ(plan.kills[1].shard, 0);
  EXPECT_THROW(parse_fault_plan("x:50@2"), TreeError);
  EXPECT_THROW(parse_fault_plan("w:"), TreeError);
}

}  // namespace
}  // namespace san
