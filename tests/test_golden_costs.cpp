// Golden-cost regression lock: total_cost (routing + rotations) and
// edge_changes of every Network type over every WorkloadKind at small n/m,
// frozen into a checked-in table. The values were generated from the seed
// implementation (per-node std::vector storage, recomputed depths) BEFORE
// the flat structure-of-arrays rewrite, so a passing run proves the storage
// layout change preserved serve() semantics bit for bit.
//
// Regenerate (after an intentional semantic change only!) with
//   SAN_PRINT_GOLDENS=1 ./build/test_golden_costs
// and paste the printed rows over kGoldens.
//
// Determinism caveat: workload generators draw from <random> distributions,
// whose mappings are implementation-defined. libstdc++ (GCC and Clang on
// Linux, what CI runs) is stable across versions; a libc++/MSVC port would
// need its own golden column.
#include <cstdlib>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "static_trees/centroid_tree.hpp"
#include "static_trees/full_tree.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

constexpr int kN = 32;
constexpr std::size_t kM = 500;
constexpr std::uint64_t kSeed = 0xC0FFEE;

const std::vector<WorkloadKind> kKinds = {
    WorkloadKind::kUniform,     WorkloadKind::kTemporal025,
    WorkloadKind::kTemporal05,  WorkloadKind::kTemporal075,
    WorkloadKind::kTemporal09,  WorkloadKind::kHpc,
    WorkloadKind::kProjector,   WorkloadKind::kFacebook,
    // Drifting families (PR 4): rows generated at their introduction, so
    // unlike the rows above they lock current — not seed — behaviour.
    WorkloadKind::kPhaseElephants, WorkloadKind::kRotatingHot,
    // Adversarial families (PR 8, deterministic): same caveat.
    WorkloadKind::kSequentialScan, WorkloadKind::kBitReversal,
};

struct NetworkSpec {
  const char* name;
  AnyNetwork (*make)(const Trace& trace);
};

const NetworkSpec kNetworks[] = {
    {"splay-k2",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(2, kN);
     }},
    {"splay-k3",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(3, kN);
     }},
    {"splay-k5",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(5, kN);
     }},
    {"semi-splay-k3",
     [](const Trace&) -> AnyNetwork {
       return KArySplayNet::balanced(3, kN, RotationPolicy{},
                                     SplayMode::kSemiSplayOnly);
     }},
    {"centroid-k3",
     [](const Trace&) -> AnyNetwork {
       return CentroidSplayNet(3, kN);
     }},
    {"binary",
     [](const Trace&) -> AnyNetwork {
       return BinarySplayNet(kN);
     }},
    {"static-full-k3",
     [](const Trace&) -> AnyNetwork {
       return StaticTreeNetwork(full_kary_tree(3, kN), "full-k3");
     }},
    {"static-centroid-k3",
     [](const Trace&) -> AnyNetwork {
       return StaticTreeNetwork(centroid_kary_tree(3, kN), "centroid-k3");
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

// Generated from the seed implementation; see file comment. Exception: the
// "binary" edge_changes column was regenerated after BinarySplayNet's
// adjustment accounting moved to the k-ary engine's snapshot-diff
// convention (net link changes per splay step instead of per-rotation
// formulas that double-counted zig-zig/zig-zag intermediates) — an
// intentional semantic fix required for the k=2 differential test. All
// other values are bit-identical to the seed.
const Golden kGoldens[] = {
    {"Uniform", "splay-k2", 4647, 12876},
    {"Uniform", "splay-k3", 3906, 12804},
    {"Uniform", "splay-k5", 3620, 12024},
    {"Uniform", "semi-splay-k3", 4951, 14916},
    {"Uniform", "centroid-k3", 3331, 6536},
    {"Uniform", "binary", 4659, 12926},
    {"Uniform", "static-full-k3", 2007, 0},
    {"Uniform", "static-centroid-k3", 1969, 0},
    {"Uniform", "static-optimal-k3", 1823, 0},
    {"Temporal 0.25", "splay-k2", 3625, 9810},
    {"Temporal 0.25", "splay-k3", 3179, 9820},
    {"Temporal 0.25", "splay-k5", 2860, 9058},
    {"Temporal 0.25", "semi-splay-k3", 3839, 11524},
    {"Temporal 0.25", "centroid-k3", 2755, 4982},
    {"Temporal 0.25", "binary", 3663, 9894},
    {"Temporal 0.25", "static-full-k3", 2000, 0},
    {"Temporal 0.25", "static-centroid-k3", 1973, 0},
    {"Temporal 0.25", "static-optimal-k3", 1831, 0},
    {"Temporal 0.5", "splay-k2", 2780, 7086},
    {"Temporal 0.5", "splay-k3", 2428, 7168},
    {"Temporal 0.5", "splay-k5", 2208, 6722},
    {"Temporal 0.5", "semi-splay-k3", 2893, 8204},
    {"Temporal 0.5", "centroid-k3", 2283, 3526},
    {"Temporal 0.5", "binary", 2799, 7120},
    {"Temporal 0.5", "static-full-k3", 2018, 0},
    {"Temporal 0.5", "static-centroid-k3", 2042, 0},
    {"Temporal 0.5", "static-optimal-k3", 1808, 0},
    {"Temporal 0.75", "splay-k2", 1523, 3192},
    {"Temporal 0.75", "splay-k3", 1407, 3384},
    {"Temporal 0.75", "splay-k5", 1301, 2940},
    {"Temporal 0.75", "semi-splay-k3", 1629, 3920},
    {"Temporal 0.75", "centroid-k3", 1634, 1622},
    {"Temporal 0.75", "binary", 1540, 3214},
    {"Temporal 0.75", "static-full-k3", 1912, 0},
    {"Temporal 0.75", "static-centroid-k3", 1981, 0},
    {"Temporal 0.75", "static-optimal-k3", 1520, 0},
    {"Temporal 0.9", "splay-k2", 925, 1306},
    {"Temporal 0.9", "splay-k3", 840, 1254},
    {"Temporal 0.9", "splay-k5", 815, 1158},
    {"Temporal 0.9", "semi-splay-k3", 974, 1560},
    {"Temporal 0.9", "centroid-k3", 1387, 736},
    {"Temporal 0.9", "binary", 922, 1296},
    {"Temporal 0.9", "static-full-k3", 2164, 0},
    {"Temporal 0.9", "static-centroid-k3", 2008, 0},
    {"Temporal 0.9", "static-optimal-k3", 1465, 0},
    {"HPC", "splay-k2", 1732, 4370},
    {"HPC", "splay-k3", 1627, 4396},
    {"HPC", "splay-k5", 1533, 4184},
    {"HPC", "semi-splay-k3", 1957, 5404},
    {"HPC", "centroid-k3", 1524, 2578},
    {"HPC", "binary", 1712, 4332},
    {"HPC", "static-full-k3", 1364, 0},
    {"HPC", "static-centroid-k3", 1395, 0},
    {"HPC", "static-optimal-k3", 1034, 0},
    {"ProjecToR", "splay-k2", 1544, 3458},
    {"ProjecToR", "splay-k3", 1493, 3750},
    {"ProjecToR", "splay-k5", 1422, 3436},
    {"ProjecToR", "semi-splay-k3", 1796, 4416},
    {"ProjecToR", "centroid-k3", 1675, 2132},
    {"ProjecToR", "binary", 1524, 3370},
    {"ProjecToR", "static-full-k3", 1737, 0},
    {"ProjecToR", "static-centroid-k3", 1840, 0},
    {"ProjecToR", "static-optimal-k3", 724, 0},
    {"Facebook", "splay-k2", 3163, 8874},
    {"Facebook", "splay-k3", 2675, 8648},
    {"Facebook", "splay-k5", 2491, 8332},
    {"Facebook", "semi-splay-k3", 3296, 10110},
    {"Facebook", "centroid-k3", 2471, 3562},
    {"Facebook", "binary", 3158, 8896},
    {"Facebook", "static-full-k3", 1824, 0},
    {"Facebook", "static-centroid-k3", 2323, 0},
    {"Facebook", "static-optimal-k3", 1095, 0},
    {"PhaseElephants", "splay-k2", 2178, 5420},
    {"PhaseElephants", "splay-k3", 2001, 5770},
    {"PhaseElephants", "splay-k5", 1956, 5644},
    {"PhaseElephants", "semi-splay-k3", 2477, 6774},
    {"PhaseElephants", "centroid-k3", 2099, 3294},
    {"PhaseElephants", "binary", 2192, 5444},
    {"PhaseElephants", "static-full-k3", 1979, 0},
    {"PhaseElephants", "static-centroid-k3", 1920, 0},
    {"PhaseElephants", "static-optimal-k3", 1380, 0},
    {"RotatingHot", "splay-k2", 1465, 3496},
    {"RotatingHot", "splay-k3", 1341, 3822},
    {"RotatingHot", "splay-k5", 1265, 3686},
    {"RotatingHot", "semi-splay-k3", 1511, 4108},
    {"RotatingHot", "centroid-k3", 1421, 1216},
    {"RotatingHot", "binary", 1452, 3446},
    {"RotatingHot", "static-full-k3", 1850, 0},
    {"RotatingHot", "static-centroid-k3", 2097, 0},
    {"RotatingHot", "static-optimal-k3", 1208, 0},
    {"SequentialScan", "splay-k2", 820, 794},
    {"SequentialScan", "splay-k3", 1750, 3900},
    {"SequentialScan", "splay-k5", 1777, 3868},
    {"SequentialScan", "semi-splay-k3", 1945, 4352},
    {"SequentialScan", "centroid-k3", 1710, 3148},
    {"SequentialScan", "binary", 786, 706},
    {"SequentialScan", "static-full-k3", 918, 0},
    {"SequentialScan", "static-centroid-k3", 920, 0},
    {"SequentialScan", "static-optimal-k3", 500, 0},
    {"BitReversal", "splay-k2", 4981, 13424},
    {"BitReversal", "splay-k3", 3889, 12166},
    {"BitReversal", "splay-k5", 3553, 11686},
    {"BitReversal", "semi-splay-k3", 4657, 13982},
    {"BitReversal", "centroid-k3", 3091, 5538},
    {"BitReversal", "binary", 4949, 13376},
    {"BitReversal", "static-full-k3", 2378, 0},
    {"BitReversal", "static-centroid-k3", 2217, 0},
    {"BitReversal", "static-optimal-k3", 1926, 0},
};

bool print_mode() {
  const char* env = std::getenv("SAN_PRINT_GOLDENS");
  return env != nullptr && env[0] == '1';
}

// Theorem 2 DP values at n = 512 — unreachable in test time before the
// flat cache-blocked engine (PR 5); the reference implementation alone
// would make this the slowest test in the wall. Locks the big-instance
// cost path (packed-triangular indexing at sizes where size_t arithmetic
// matters) the same way kGoldens locks the serve path. Regenerate with
// SAN_PRINT_GOLDENS=1 after an intentional semantic change only.
struct DpGolden {
  WorkloadKind kind;
  int k;
  Cost cost;
};

constexpr int kDpN = 512;
constexpr std::size_t kDpM = 20000;

const DpGolden kDpGoldens[] = {
    {WorkloadKind::kTemporal05, 2, 228374},
    {WorkloadKind::kTemporal05, 5, 127041},
    {WorkloadKind::kHpc, 3, 85557},
    {WorkloadKind::kFacebook, 10, 45384},
};

TEST(GoldenCosts, OptimalDpCostAtN512) {
  for (const DpGolden& g : kDpGoldens) {
    const Trace trace = gen_workload(g.kind, kDpN, kDpM, kSeed);
    ASSERT_EQ(trace.n, kDpN);
    const DemandMatrix d = DemandMatrix::from_trace(trace);
    const Cost got = optimal_routing_based_cost(g.k, d, 1);
    if (print_mode()) {
      std::printf("    // %s k=%d -> %lld\n", workload_name(g.kind), g.k,
                  static_cast<long long>(got));
      continue;
    }
    EXPECT_EQ(got, g.cost) << workload_name(g.kind) << " k=" << g.k;
  }
  if (print_mode()) GTEST_SKIP() << "printed n=512 DP golden rows";
}

TEST(GoldenCosts, EveryNetworkOnEveryWorkload) {
  std::vector<Golden> measured;
  for (WorkloadKind kind : kKinds) {
    const Trace trace = gen_workload(kind, kN, kM, kSeed);
    ASSERT_EQ(trace.n, kN);
    for (const NetworkSpec& spec : kNetworks) {
      AnyNetwork net = spec.make(trace);
      const SimResult res = run_trace(net, trace);
      measured.push_back(
          {workload_name(kind), spec.name, res.total_cost(), res.edge_changes});
    }
  }

  if (print_mode()) {
    for (const Golden& g : measured)
      std::printf("    {\"%s\", \"%s\", %lld, %lld},\n", g.workload, g.network,
                  static_cast<long long>(g.total_cost),
                  static_cast<long long>(g.edge_changes));
    GTEST_SKIP() << "printed " << measured.size() << " golden rows";
  }

  ASSERT_EQ(measured.size(), std::size(kGoldens))
      << "network/workload grid changed; regenerate kGoldens";
  for (std::size_t i = 0; i < measured.size(); ++i) {
    EXPECT_STREQ(measured[i].workload, kGoldens[i].workload) << "row " << i;
    EXPECT_STREQ(measured[i].network, kGoldens[i].network) << "row " << i;
    EXPECT_EQ(measured[i].total_cost, kGoldens[i].total_cost)
        << measured[i].workload << " / " << measured[i].network;
    EXPECT_EQ(measured[i].edge_changes, kGoldens[i].edge_changes)
        << measured[i].workload << " / " << measured[i].network;
  }
}

}  // namespace
}  // namespace san
