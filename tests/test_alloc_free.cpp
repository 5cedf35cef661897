// Allocation audit for the serve() hot path. This binary overrides the
// global allocation functions with counting wrappers; after a short warm-up
// (first rotations size the thread-local rotation scratch to its per-arity
// high-water mark), a serve/replay loop must perform ZERO heap allocations:
// KAryTree's flat storage never grows, pair queries write only the
// tree-owned stamp array, rotations reuse the thread-local merge buffers,
// and the static costing path is pure pointer chasing. The shape builder
// is audited too: once warm, a build allocates the same number of times
// whatever the tree size. So is the sharded barrier's rebuild round: its
// workers allocate no tree storage (the caller sizes it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/binary_splaynet.hpp"
#include "core/local_router.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "static_trees/full_tree.hpp"
#include "workload/generators.hpp"

namespace {
std::atomic<long> g_allocations{0};
/// Largest single allocation made by any thread but the one that set
/// t_test_thread.
std::atomic<std::size_t> g_largest_off_thread{0};
thread_local bool t_test_thread = false;

// Out of line: with it inlined, GCC -O3 -fsanitize=thread stops inlining
// operator new, then sees the inlined delete's free() take a pointer
// from operator new and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (t_test_thread) return;
  std::size_t seen = g_largest_off_thread.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_off_thread.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}
}  // namespace

// Counting replacements for the global allocation functions. Counting the
// allocation side only is enough: the tests assert a zero *delta*, so any
// new/delete pair inside the measured window is caught via the new.
void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation(size);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  count_allocation(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace san {
namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

std::vector<Request> random_requests(int n, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> pick(1, n);
  std::vector<Request> reqs(static_cast<size_t>(count));
  for (Request& r : reqs) {
    r.src = pick(rng);
    r.dst = pick(rng);
    while (r.dst == r.src) r.dst = pick(rng);
  }
  return reqs;
}

TEST(AllocFree, SanityCounterSeesAllocations) {
  const long before = allocations();
  std::vector<int>* v = new std::vector<int>(100);
  EXPECT_GT(allocations(), before);
  delete v;
}

TEST(AllocFree, KArySplayServeIsAllocationFree) {
  for (int k : {2, 3, 5, 10, 16, 33}) {
    KArySplayNet net = KArySplayNet::balanced(k, 300);
    const std::vector<Request> reqs = random_requests(300, 4000, 42 + k);
    // Warm-up: first rotations grow the thread-local merge scratch to the
    // arity's high-water mark.
    for (int i = 0; i < 1000; ++i) net.serve(reqs[i].src, reqs[i].dst);

    const long before = allocations();
    Cost total = 0;
    for (int i = 1000; i < 4000; ++i) {
      const ServeResult s = net.serve(reqs[i].src, reqs[i].dst);
      total += s.routing_cost + s.rotations;
    }
    EXPECT_EQ(allocations() - before, 0)
        << "k=" << k << " serve() allocated on the hot path";
    EXPECT_GT(total, 0);
  }
}

TEST(AllocFree, StaticReplayAndTopologyQueriesAreAllocationFree) {
  const KAryTree tree = full_kary_tree(4, 500);
  const std::vector<Request> reqs = random_requests(500, 3000, 7);
  Trace trace;
  trace.n = 500;
  trace.requests = reqs;
  // The first replay allocates nothing either: the pair walk writes only
  // the tree-owned stamp array.
  const long before_cold = allocations();
  const SimResult cold = run_trace_static(tree, trace);
  EXPECT_EQ(allocations() - before_cold, 0) << "cold static replay allocated";

  const long before = allocations();
  const SimResult warm = run_trace_static(tree, trace);
  Cost depth_sum = 0;
  for (NodeId id = 1; id <= tree.size(); ++id) depth_sum += tree.depth(id);
  for (int i = 0; i < 500; ++i) {
    const PathInfo info = tree.path_info(reqs[i].src, reqs[i].dst);
    depth_sum += info.distance + tree.distance(reqs[i].src, reqs[i].dst);
  }
  EXPECT_EQ(allocations() - before, 0) << "warm static queries allocated";
  EXPECT_EQ(cold.routing_cost, warm.routing_cost);
  EXPECT_GT(depth_sum, 0);
}

TEST(AllocFree, BufferReusingVariantsAreAllocationFreeOnceWarm) {
  KArySplayNet net = KArySplayNet::balanced(3, 200);
  const std::vector<Request> reqs = random_requests(200, 2000, 99);
  for (int i = 0; i < 500; ++i) net.serve(reqs[i].src, reqs[i].dst);

  std::vector<NodeId> path;
  std::vector<Hop> hops;
  // Caller-owned buffers: reserve the worst case up front (that is the
  // documented usage). The router's internal thread-local buffer grows to
  // its high-water mark during a full warm-up pass over the same request
  // sequence the measured loop replays.
  path.reserve(static_cast<size_t>(net.size()) + 1);
  hops.reserve(4 * static_cast<size_t>(net.size()) + 1);
  for (int i = 500; i < 2000; ++i)
    local_route_length(net.tree(), reqs[i].dst, reqs[i].src);

  const long before = allocations();
  long hop_total = 0;
  for (int i = 500; i < 2000; ++i) {
    hop_total += net.tree().route_into(reqs[i].src, reqs[i].dst, path);
    hop_total += net.tree().search_from_root_into(reqs[i].dst, path);
    hop_total += local_route_into(net.tree(), reqs[i].src, reqs[i].dst, hops);
    hop_total += local_route_length(net.tree(), reqs[i].dst, reqs[i].src);
  }
  EXPECT_EQ(allocations() - before, 0) << "buffer-reusing variants allocated";
  EXPECT_GT(hop_total, 0);
}

TEST(AllocFree, BinarySplayServeIsAllocationFree) {
  BinarySplayNet net(300);
  const std::vector<Request> reqs = random_requests(300, 3000, 5);
  for (int i = 0; i < 500; ++i) net.serve(reqs[i].src, reqs[i].dst);
  const long before = allocations();
  for (int i = 500; i < 3000; ++i) net.serve(reqs[i].src, reqs[i].dst);
  EXPECT_EQ(allocations() - before, 0) << "binary serve allocated";
}

TEST(AllocFree, ShapeBuilderAllocatesNothingPerNode) {
  // The tree's constructor allocates its flat storage in a fixed number of
  // blocks and the installer stages every node in thread-local scratch, so
  // once that scratch has grown for the arity, the allocation count of a
  // build must not depend on n.
  for (int k : {2, 3, 10}) {
    const Shape small = make_complete_shape(512, k);
    const Shape large = make_complete_shape(8192, k);
    build_from_shape(k, small);  // warm-up: sizes the staging scratch
    const auto build_allocations = [&](const Shape& shape) {
      const long before = allocations();
      const KAryTree tree = build_from_shape(k, shape);
      EXPECT_EQ(tree.size(), shape.size);
      return allocations() - before;
    };
    EXPECT_EQ(build_allocations(small), build_allocations(large))
        << "k=" << k << " build_from_shape allocated per node";
  }
}

TEST(AllocFree, BarrierRoundAllocatesNoTreeStorageOnWorkers) {
  // The caller resets every rebuilt tree to its new size before the round;
  // the workers only install the balanced shape, validate and count
  // relinks, which takes a few small blocks per node at most. Tree storage
  // cannot hide under the bound: one shard's parent array alone is bigger.
  constexpr std::size_t kBound = 4096;
  const int n = 8192, S = 4;
  ShardedNetwork net = ShardedNetwork::balanced(3, n, S);
  const std::size_t parent_bytes =
      (static_cast<std::size_t>(net.shard(0).size()) + 1) * sizeof(NodeId);
  ASSERT_GE(parent_bytes, 2 * kBound);

  std::mt19937_64 rng(2024);
  t_test_thread = true;
  g_largest_off_thread.store(0, std::memory_order_relaxed);
  int migrated = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<Migration> batch;
    std::vector<bool> used(static_cast<std::size_t>(n) + 1, false);
    for (int i = 0; i < 32; ++i) {
      const NodeId node = static_cast<NodeId>(1 + rng() % n);
      if (used[static_cast<std::size_t>(node)]) continue;
      used[static_cast<std::size_t>(node)] = true;
      batch.push_back({node, static_cast<int>(rng() % S)});
    }
    migrated += net.apply_migrations(std::move(batch), 4).migrated;
  }
  t_test_thread = false;
  EXPECT_GT(migrated, 0);
  EXPECT_LT(g_largest_off_thread.load(std::memory_order_relaxed), kBound)
      << "a rebuild worker allocated tree storage";
}

}  // namespace
}  // namespace san
