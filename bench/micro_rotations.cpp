// Microbenchmarks: latency of the rotation primitives and of a full serve,
// as a function of arity (2..10, plus 16 and 32, where the rotation
// kernel's merged sequences are longest), and of one Zipf draw at the
// trace generators' shapes. Not a paper table — engineering data: rotation
// cost grows with k while depth shrinks, and the product is what the macro
// benches measure end to end; the Zipf draw is the per-request cost of
// generating (or streaming) the projector, phase-elephant and Facebook
// traces.
#include <benchmark/benchmark.h>

#include <random>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "workload/generators.hpp"
#include "workload/zipf.hpp"

namespace {

void BM_KSemiSplay(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = 1 << 12;
  san::KAryTree tree =
      san::build_from_shape(k, san::make_complete_shape(n, k));
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    san::NodeId x = 1 + static_cast<san::NodeId>(rng() % n);
    if (tree.node(x).parent == san::kNoNode) continue;
    benchmark::DoNotOptimize(san::k_semi_splay(tree, x));
  }
}
BENCHMARK(BM_KSemiSplay)->DenseRange(2, 10, 2)->Arg(16)->Arg(32);

void BM_KSplay(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = 1 << 12;
  san::KAryTree tree =
      san::build_from_shape(k, san::make_complete_shape(n, k));
  std::mt19937_64 rng(2);
  for (auto _ : state) {
    san::NodeId x = 1 + static_cast<san::NodeId>(rng() % n);
    const san::NodeId p = tree.node(x).parent;
    if (p == san::kNoNode || tree.node(p).parent == san::kNoNode) continue;
    benchmark::DoNotOptimize(san::k_splay(tree, x));
  }
}
BENCHMARK(BM_KSplay)->DenseRange(2, 10, 2)->Arg(16)->Arg(32);

void BM_Serve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = 1 << 12;
  san::KArySplayNet net = san::KArySplayNet::balanced(k, n);
  san::Trace trace = san::gen_temporal(n, 1 << 16, 0.5, 3);
  size_t i = 0;
  for (auto _ : state) {
    const san::Request& r = trace.requests[i++ % trace.size()];
    benchmark::DoNotOptimize(net.serve(r.src, r.dst));
  }
}
BENCHMARK(BM_Serve)->DenseRange(2, 10, 2)->Arg(16)->Arg(32);

void BM_StaticDistance(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = 1 << 12;
  san::KAryTree tree =
      san::build_from_shape(k, san::make_complete_shape(n, k));
  std::mt19937_64 rng(4);
  for (auto _ : state) {
    san::NodeId u = 1 + static_cast<san::NodeId>(rng() % n);
    san::NodeId v = 1 + static_cast<san::NodeId>(rng() % n);
    benchmark::DoNotOptimize(tree.distance(u, v));
  }
}
BENCHMARK(BM_StaticDistance)->DenseRange(2, 10, 2);

// Arguments: support size n and 100 * alpha. The three cases are the
// projector support at n = 1024 (4096 ranks, alpha 1.8), phase elephants
// at n = 10^5 (alpha 1.6) and a Facebook stream at n = 10^6 (alpha 1.3).
void BM_ZipfDraw(benchmark::State& state) {
  const san::ZipfSampler zipf(static_cast<int>(state.range(0)),
                              static_cast<double>(state.range(1)) / 100.0);
  std::mt19937_64 rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(zipf(rng));
}
BENCHMARK(BM_ZipfDraw)
    ->Args({4096, 180})
    ->Args({100000, 160})
    ->Args({1000000, 130});

}  // namespace
