// Differential check: KArySplayNet at k = 2 must be *exactly* classic
// SplayNet. Starting from identical topologies, the two independent
// implementations (flat k-ary engine vs plain left/right/parent BST) must
// produce identical per-request ServeResults — routing cost, rotation
// count, parent changes, and edge changes — over long randomized request
// sequences, and identical tree evolution. Any divergence in the merge /
// block-partition rotation engine, the stamped lca/distance walk, or the
// snapshot-diff accounting shows up here within a few requests.
#include <gtest/gtest.h>

#include <random>

#include "core/binary_splaynet.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"

namespace san {
namespace {

// Mirror of BinarySplayNet::build_balanced([lo, hi]) as a Shape: midpoint
// root, ids assigned in order — so build_from_shape(2, ...) reproduces the
// binary net's initial topology node for node.
Shape balanced_bst_shape(int count) {
  Shape s;
  s.size = count;
  if (count <= 1) return s;
  const int left = (count - 1) / 2;   // nodes below mid = lo + (hi-lo)/2
  const int right = count - 1 - left;
  if (left > 0) s.kids.push_back(balanced_bst_shape(left));
  s.self_pos = static_cast<int>(s.kids.size());
  if (right > 0) s.kids.push_back(balanced_bst_shape(right));
  return s;
}

// Structural equality: same parent for every node implies the same tree.
void expect_same_topology(const KAryTree& kary, const BinarySplayNet& bin,
                          int request_index) {
  ASSERT_EQ(kary.size(), bin.size());
  EXPECT_EQ(kary.root(), bin.root()) << "after request " << request_index;
  for (NodeId id = 1; id <= kary.size(); ++id)
    ASSERT_EQ(kary.parent(id), bin.parent(id))
        << "node " << id << " after request " << request_index;
}

TEST(Differential, InitialBalancedTopologiesMatch) {
  for (int n : {1, 2, 3, 7, 20, 64, 100}) {
    BinarySplayNet bin(n);
    KAryTree kary = build_from_shape(2, balanced_bst_shape(n));
    ASSERT_FALSE(kary.validate().has_value());
    expect_same_topology(kary, bin, -1);
  }
}

TEST(Differential, TenThousandRandomServesAcrossSeeds) {
  constexpr int kNodes = 64;
  constexpr int kRequests = 10000;
  for (std::uint64_t seed : {11u, 222u, 3333u}) {
    BinarySplayNet bin(kNodes);
    KArySplayNet kary(build_from_shape(2, balanced_bst_shape(kNodes)));
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<NodeId> pick(1, kNodes);
    for (int i = 0; i < kRequests; ++i) {
      const NodeId u = pick(rng);
      NodeId v = pick(rng);
      while (v == u) v = pick(rng);
      const ServeResult kr = kary.serve(u, v);
      const ServeResult br = bin.serve(u, v);
      ASSERT_EQ(kr, br) << "seed " << seed << " request " << i << " (" << u
                        << " -> " << v << "): kary {" << kr.routing_cost
                        << ", " << kr.rotations << ", " << kr.parent_changes
                        << ", " << kr.edge_changes << "} vs binary {"
                        << br.routing_cost << ", " << br.rotations << ", "
                        << br.parent_changes << ", " << br.edge_changes << "}";
      if (i % 1000 == 0) {
        ASSERT_FALSE(kary.tree().validate().has_value());
        ASSERT_TRUE(bin.valid());
        expect_same_topology(kary.tree(), bin, i);
      }
    }
    expect_same_topology(kary.tree(), bin, kRequests);
  }
}

TEST(Differential, AccessSequencesMatch) {
  // Theorem 12 mode: every request originates at the root (splay-tree
  // access). Zipf-ish skew so some nodes are accessed repeatedly.
  constexpr int kNodes = 50;
  BinarySplayNet bin(kNodes);
  KArySplayNet kary(build_from_shape(2, balanced_bst_shape(kNodes)));
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<NodeId> pick(1, kNodes);
  for (int i = 0; i < 5000; ++i) {
    const NodeId x = std::min(pick(rng), pick(rng));  // mild skew to low ids
    const ServeResult kr = kary.access(x);
    const ServeResult br = bin.access(x);
    ASSERT_EQ(kr, br) << "access " << i << " of node " << x;
  }
  expect_same_topology(kary.tree(), bin, 5000);
}

}  // namespace
}  // namespace san
