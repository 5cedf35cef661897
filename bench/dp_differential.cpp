// Release-mode differential gate: the tiled DP engine against the
// pre-rewrite reference oracle on randomized demand matrices. The tier-1
// test wall runs the same comparison under ASan/UBSan in debug-friendly
// sizes (tests/test_dp_exhaustive.cpp); this binary repeats it with
// Release codegen — the configuration that actually ships the vectorized
// min-plus kernels — and exits nonzero on any cost or tree mismatch, so
// CI cannot go green with a silently diverging optimizer build.
//
//   dp_differential            # 200 instances, n up to 165
//   dp_differential --smoke    # 48 instances, n up to 101 (CI push gate)
//
// The first instance always takes the largest n: with the engine's
// 32-wide tiles, 101 is three full tiles and a partial fourth, so even
// the smoke run reaches the between-tiles products and a partial edge.
#include <iostream>
#include <random>
#include <string>

#include "bench_common.hpp"
#include "static_trees/optimal_dp.hpp"
#include "workload/demand_matrix.hpp"

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);

  const int instances = bench::scaled(48, 200, 400);
  const int max_n = bench::scaled(101, 165, 229);
  const int ks[] = {2, 3, 5, 10};

  long checked = 0;
  for (int trial = 0; trial < instances; ++trial) {
    const int k = ks[trial % 4];
    std::mt19937_64 rng(0x5EEDu + static_cast<std::uint64_t>(trial));
    const int n =
        trial == 0
            ? max_n
            : 2 + static_cast<int>(rng() % static_cast<unsigned>(max_n - 1));
    DemandMatrix d(n);
    const int pairs = 1 + static_cast<int>(rng() % (4u * n));
    for (int p = 0; p < pairs; ++p) {
      const NodeId u = 1 + static_cast<NodeId>(rng() % n);
      const NodeId v = 1 + static_cast<NodeId>(rng() % n);
      if (u != v) d.add(u, v, 1 + static_cast<Cost>(rng() % 997));
    }
    const OptimalTreeResult fast = optimal_routing_based_tree(k, d, 1);
    const OptimalTreeResult ref = optimal_routing_based_tree_reference(k, d, 1);
    if (fast.total_distance != ref.total_distance) {
      std::cerr << "MISMATCH: cost " << fast.total_distance << " vs reference "
                << ref.total_distance << " (trial " << trial << ", n=" << n
                << ", k=" << k << ")\n";
      return 1;
    }
    if (optimal_routing_based_cost(k, d, 1) != ref.total_distance) {
      std::cerr << "MISMATCH: cost-only entry diverges (trial " << trial
                << ", n=" << n << ", k=" << k << ")\n";
      return 1;
    }
    if (!fast.tree.valid() ||
        d.total_distance(fast.tree) != fast.total_distance) {
      std::cerr << "MISMATCH: reconstructed tree does not achieve the DP "
                   "value (trial "
                << trial << ", n=" << n << ", k=" << k << ")\n";
      return 1;
    }
    for (NodeId u = 1; u <= n; ++u) {
      if (fast.tree.parent(u) != ref.tree.parent(u)) {
        std::cerr << "MISMATCH: trees differ at node " << u << " (trial "
                  << trial << ", n=" << n << ", k=" << k << ")\n";
        return 1;
      }
    }
    ++checked;
  }
  std::cout << "dp_differential: " << checked
            << " instances, tiled engine == reference (cost, tree)\n";
  bench::write_json_result(
      "{\n  \"bench\": \"dp_differential\",\n  \"instances\": " +
      std::to_string(checked) + ",\n  \"result\": \"identical\"\n}\n");
  return 0;
}
