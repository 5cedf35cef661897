// Property tests for the k-semi-splay / k-splay rotation engine: the search
// property, the permanence of node identifiers, and subtree node sets must
// survive arbitrary rotation storms for every arity and policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <sstream>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "io/checksum.hpp"
#include "io/tree_io.hpp"
#include "rotation_policies.hpp"

namespace san {
namespace {

std::set<NodeId> subtree_ids(const KAryTree& t, NodeId root) {
  std::set<NodeId> ids;
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    ids.insert(cur);
    for (NodeId c : t.node(cur).children)
      if (c != kNoNode) stack.push_back(c);
  }
  return ids;
}

class RotationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RotationPropertyTest, SemiSplayPreservesEverything) {
  const auto [k, seed] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919 + k);
  for (const PolicyCase& pc : kPolicies) {
    const int n = 20 + static_cast<int>(rng() % 60);
    Shape s = make_random_shape(n, k, rng);
    s.recompute_sizes();
    KAryTree t = build_from_shape(k, s);
    for (int step = 0; step < 200; ++step) {
      NodeId x = 1 + static_cast<NodeId>(rng() % n);
      if (t.node(x).parent == kNoNode) continue;
      const NodeId p = t.node(x).parent;
      const auto before = subtree_ids(t, p);
      k_semi_splay(t, x, pc.policy);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << pc.name << " k=" << k << " step=" << step << ": " << *err;
      // x took p's place: same node set below.
      EXPECT_EQ(subtree_ids(t, x), before) << pc.name;
      // x is now p's ancestor.
      EXPECT_TRUE(t.is_ancestor(x, p)) << pc.name;
    }
  }
}

TEST_P(RotationPropertyTest, KSplayPreservesEverything) {
  const auto [k, seed] = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 104729 + k);
  for (const PolicyCase& pc : kPolicies) {
    const int n = 20 + static_cast<int>(rng() % 60);
    Shape s = make_random_shape(n, k, rng);
    s.recompute_sizes();
    KAryTree t = build_from_shape(k, s);
    for (int step = 0; step < 200; ++step) {
      NodeId x = 1 + static_cast<NodeId>(rng() % n);
      const NodeId p = t.node(x).parent;
      if (p == kNoNode || t.node(p).parent == kNoNode) continue;
      const NodeId g = t.node(p).parent;
      const int depth_before = t.depth(x);
      const auto before = subtree_ids(t, g);
      k_splay(t, x, pc.policy);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << pc.name << " k=" << k << " step=" << step << ": " << *err;
      EXPECT_EQ(subtree_ids(t, x), before) << pc.name;
      EXPECT_EQ(t.depth(x), depth_before - 2) << pc.name;
      EXPECT_TRUE(t.is_ancestor(x, p)) << pc.name;
      EXPECT_TRUE(t.is_ancestor(x, g)) << pc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, RotationPropertyTest,
                         ::testing::Combine(::testing::Range(2, 11),
                                            ::testing::Values(1, 2, 3)),
                         [](const auto& info) {
                           return "k" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Rotation, SemiSplayOnRootThrows) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  EXPECT_THROW(k_semi_splay(t, t.root()), TreeError);
}

TEST(Rotation, KSplayNeedsGrandparent) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  EXPECT_THROW(k_splay(t, t.root()), TreeError);
  for (NodeId c : t.node(t.root()).children)
    if (c != kNoNode) {
      EXPECT_THROW(k_splay(t, c), TreeError);
    }
}

TEST(Rotation, ReportsEdgeChanges) {
  KAryTree t = build_from_shape(2, make_path_shape(8));
  // Deepest node of the path; splaying it up must rewire something.
  NodeId deepest = 1;
  for (NodeId id = 2; id <= 8; ++id)
    if (t.depth(id) > t.depth(deepest)) deepest = id;
  RotationResult r = k_splay(t, deepest);
  EXPECT_GT(r.parent_changes, 0);
  EXPECT_GE(r.edge_changes, r.parent_changes);
  ASSERT_TRUE(t.valid());
}

TEST(Rotation, BinaryCaseActsLikeBstRotation) {
  // k = 2, complete tree of 3: semi-splay of a child is exactly one BST
  // rotation; the former root ends with the rotated node as parent.
  KAryTree t = build_from_shape(2, make_complete_shape(3, 2));
  NodeId root = t.root();
  NodeId child = kNoNode;
  for (NodeId c : t.node(root).children)
    if (c != kNoNode) child = c;
  ASSERT_NE(child, kNoNode);
  k_semi_splay(t, child);
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.root(), child);
  EXPECT_EQ(t.node(root).parent, child);
}

// Fingerprint of one seeded storm of ~500 mixed k_splay / k_semi_splay
// calls on a random shape: the CRC32 of the serialized final tree and the
// summed RotationResult.
struct StormPin {
  int k;
  const char* policy;
  std::uint32_t crc;
  int parent_changes;
  int edge_changes;
};

StormPin run_storm(int k, const PolicyCase& pc, std::uint64_t seed) {
  constexpr int n = 150;
  std::mt19937_64 rng(seed);
  KAryTree t = build_from_shape(k, make_random_shape(n, k, rng));
  RotationResult sum;
  for (int done = 0; done < 500;) {
    const NodeId x = 1 + static_cast<NodeId>(rng() % n);
    const NodeId p = t.parent(x);
    if (p == kNoNode) continue;
    const RotationResult r = (t.parent(p) != kNoNode && (rng() & 1))
                                 ? k_splay(t, x, pc.policy)
                                 : k_semi_splay(t, x, pc.policy);
    sum.parent_changes += r.parent_changes;
    sum.edge_changes += r.edge_changes;
    ++done;
  }
  std::ostringstream out;
  write_tree(out, t);
  return {k, pc.name, crc32(out.str()), sum.parent_changes, sum.edge_changes};
}

TEST(Rotation, StormLayoutIsPinned) {
  // The golden-cost suite locks serve costs under the default policy only;
  // these pins lock the trees themselves and the relink accounting, under
  // every block rule.
  const StormPin pins[] = {
      {2, "balanced-centered", 0x9317bdf8u, 1556, 3090},
      {2, "greedy-centered", 0xbefb564au, 1553, 3086},
      {2, "balanced-left", 0xdc65e7c9u, 1590, 3150},
      {2, "balanced-right", 0x21f42d25u, 1596, 3164},
      {2, "greedy-left", 0xfb2ca9aau, 1604, 3204},
      {2, "no-case-preference", 0xc9242bf7u, 1578, 3134},
      {3, "balanced-centered", 0x73c26aa7u, 1696, 3368},
      {3, "greedy-centered", 0x5099d0bcu, 1770, 3508},
      {3, "balanced-left", 0x1f23b10cu, 1775, 3506},
      {3, "balanced-right", 0x1b4801beu, 1749, 3454},
      {3, "greedy-left", 0x588f6fb7u, 1708, 3394},
      {3, "no-case-preference", 0xf0921acfu, 1732, 3444},
      {5, "balanced-centered", 0x8799ae10u, 1782, 3520},
      {5, "greedy-centered", 0x7c34e495u, 1781, 3532},
      {5, "balanced-left", 0x0be3cb88u, 1854, 3668},
      {5, "balanced-right", 0x355f132du, 1778, 3514},
      {5, "greedy-left", 0x7efc1444u, 1900, 3772},
      {5, "no-case-preference", 0x739688a1u, 1833, 3650},
      {10, "balanced-centered", 0x38af500du, 1875, 3704},
      {10, "greedy-centered", 0xaefcdf3cu, 1952, 3846},
      {10, "balanced-left", 0x3839cb49u, 1927, 3822},
      {10, "balanced-right", 0x4a7ffa05u, 1960, 3866},
      {10, "greedy-left", 0xca7cf241u, 2060, 4076},
      {10, "no-case-preference", 0xd6867cc8u, 1873, 3716},
  };
  size_t i = 0;
  for (int k : {2, 3, 5, 10}) {
    for (size_t pi = 0; pi < std::size(kPolicies); ++pi, ++i) {
      ASSERT_LT(i, std::size(pins));
      const StormPin& want = pins[i];
      const StormPin got =
          run_storm(k, kPolicies[pi], 7000 + 100 * static_cast<unsigned>(k) + pi);
      ASSERT_EQ(want.k, k);
      ASSERT_STREQ(want.policy, kPolicies[pi].name);
      EXPECT_EQ(got.crc, want.crc) << "k=" << k << " " << want.policy;
      EXPECT_EQ(got.parent_changes, want.parent_changes)
          << "k=" << k << " " << want.policy;
      EXPECT_EQ(got.edge_changes, want.edge_changes)
          << "k=" << k << " " << want.policy;
    }
  }
  EXPECT_EQ(i, std::size(pins));
}

}  // namespace
}  // namespace san
