// Unit tests for the KAryTree container: construction, queries, validation.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/karytree.hpp"
#include "core/shape.hpp"

namespace san {
namespace {

// Deliberately broken hand-built tree: node 1 carries keys outside its
// assigned range (keys live in the doubled space, see types.hpp).
KAryTree broken_tree() {
  KAryTree t(3, 4);
  t.install(2, {id_key(2)}, {1, 3}, kKeyMin, kKeyMax);
  // node 1's range is (-inf, 4) but it claims keys {6, 8}.
  t.install(1, {id_key(3), id_key(4)}, {kNoNode, kNoNode, kNoNode}, kKeyMin,
            id_key(2));
  t.install(3, {id_key(3)}, {kNoNode, 4}, id_key(2), kKeyMax);
  t.install(4, {id_key(4)}, {kNoNode, kNoNode}, id_key(3), kKeyMax);
  t.set_root(2);
  return t;
}

TEST(KAryTree, ConstructionRejectsBadArity) {
  EXPECT_THROW(KAryTree(1, 5), TreeError);
  EXPECT_THROW(KAryTree(2, 0), TreeError);
}

TEST(KAryTree, InstallRejectsMalformedNode) {
  KAryTree t(3, 3);
  // children must be keys + 1
  EXPECT_THROW(t.install(1, {id_key(2)}, {kNoNode}, kKeyMin, kKeyMax),
               TreeError);
  // too many keys for arity 3
  EXPECT_THROW(t.install(1, {id_key(1), id_key(2), id_key(3)},
                         {kNoNode, 2, 3, kNoNode}, kKeyMin, kKeyMax),
               TreeError);
}

TEST(KAryTree, ValidateDetectsMissingRoot) {
  KAryTree t(2, 2);
  EXPECT_TRUE(t.validate().has_value());
}

TEST(KAryTree, ValidateDetectsUnreachableNodes) {
  KAryTree t(2, 3);
  t.install(1, {id_key(1)}, {kNoNode, 2}, kKeyMin, kKeyMax);
  t.install(2, {id_key(2)}, {kNoNode, kNoNode}, id_key(1), kKeyMax);
  t.set_root(1);
  auto err = t.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("reachable"), std::string::npos);
}

TEST(KAryTree, ValidateDetectsRangeViolation) {
  KAryTree t(2, 3);
  // node 3 placed in the interval below id_key(1): violates its range.
  t.install(1, {id_key(1)}, {3, 2}, kKeyMin, kKeyMax);
  t.install(3, {id_key(3)}, {kNoNode, kNoNode}, kKeyMin, id_key(1));
  t.install(2, {id_key(2)}, {kNoNode, kNoNode}, id_key(1), kKeyMax);
  t.set_root(1);
  auto err = t.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("range"), std::string::npos);
}

TEST(KAryTree, ValidPathTree) {
  KAryTree t = build_from_shape(2, make_path_shape(6));
  EXPECT_FALSE(t.validate().has_value()) << *t.validate();
  // A path shape with self_pos = 1 stacks n..1 downward.
  EXPECT_EQ(t.depth(t.root()), 0);
  int max_depth = 0;
  for (NodeId id = 1; id <= 6; ++id)
    max_depth = std::max(max_depth, t.depth(id));
  EXPECT_EQ(max_depth, 5);
}

TEST(KAryTree, DistanceAndLcaOnCompleteTree) {
  KAryTree t = build_from_shape(2, make_complete_shape(7, 2));
  ASSERT_TRUE(t.valid());
  for (NodeId u = 1; u <= 7; ++u) {
    EXPECT_EQ(t.distance(u, u), 0);
    EXPECT_EQ(t.lca(u, u), u);
  }
  // Symmetry and triangle equality along tree paths.
  for (NodeId u = 1; u <= 7; ++u)
    for (NodeId v = 1; v <= 7; ++v) {
      EXPECT_EQ(t.distance(u, v), t.distance(v, u));
      NodeId w = t.lca(u, v);
      EXPECT_EQ(t.distance(u, v), t.distance(u, w) + t.distance(w, v));
      EXPECT_TRUE(t.is_ancestor(w, u));
      EXPECT_TRUE(t.is_ancestor(w, v));
    }
}

TEST(KAryTree, RouteEndpointsAndLength) {
  KAryTree t = build_from_shape(3, make_complete_shape(13, 3));
  ASSERT_TRUE(t.valid());
  for (NodeId u = 1; u <= 13; u += 3)
    for (NodeId v = 1; v <= 13; v += 2) {
      auto path = t.route(u, v);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, t.distance(u, v));
    }
}

TEST(KAryTree, SearchFromRootFindsEveryNode) {
  KAryTree t = build_from_shape(4, make_complete_shape(29, 4));
  ASSERT_TRUE(t.valid());
  for (NodeId id = 1; id <= 29; ++id) {
    auto path = t.search_from_root(id);
    EXPECT_EQ(path.back(), id);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, t.depth(id));
  }
}

TEST(KAryTree, UniformTotalDistanceMatchesPairwiseSum) {
  KAryTree t = build_from_shape(3, make_complete_shape(10, 3));
  Cost direct = 0;
  for (NodeId u = 1; u <= 10; ++u)
    for (NodeId v = u + 1; v <= 10; ++v) direct += t.distance(u, v);
  EXPECT_EQ(t.uniform_total_distance(), direct);
}

TEST(KAryTree, PairQueriesRejectDisconnectedComponents) {
  // Two components under two roots: 1 <- 2 and 3 <- 4 (link() on nodes
  // without keys, so each child hangs in slot 0).
  KAryTree t(2, 4);
  t.link(kNoNode, 0, 1);
  t.link(1, 0, 2);
  t.link(kNoNode, 0, 3);
  t.link(3, 0, 4);
  std::vector<NodeId> route;
  for (const auto& [u, v] : {std::pair{2, 4}, std::pair{4, 2},
                             std::pair{1, 3}, std::pair{2, 3}}) {
    EXPECT_THROW(t.path_info(u, v), TreeError) << u << "," << v;
    EXPECT_THROW(t.lca(u, v), TreeError) << u << "," << v;
    EXPECT_THROW(t.distance(u, v), TreeError) << u << "," << v;
    EXPECT_THROW(t.route_into(u, v, route), TreeError) << u << "," << v;
  }
  // Within one component the queries still answer.
  EXPECT_EQ(t.path_info(2, 1).lca, 1);
  EXPECT_EQ(t.distance(4, 3), 1);
}

TEST(KAryTree, ParentCycleThrowsInsteadOfHanging) {
  // 1 -> 2 -> 3 -> 1 is a parent cycle; 4 is a separate root. A side that
  // climbs into the cycle meets its own stamp and throws.
  KAryTree t(2, 4);
  t.link(1, 0, 2);
  t.link(2, 0, 3);
  t.link(3, 0, 1);
  t.link(kNoNode, 0, 4);
  std::vector<NodeId> route;
  for (const auto& [u, v] : {std::pair{1, 4}, std::pair{4, 3}}) {
    EXPECT_THROW(t.path_info(u, v), TreeError) << u << "," << v;
    EXPECT_THROW(t.lca(u, v), TreeError) << u << "," << v;
    EXPECT_THROW(t.route_into(u, v, route), TreeError) << u << "," << v;
  }
  EXPECT_THROW(t.depth(2), TreeError);
}

TEST(KAryTree, BrokenHandBuiltTreeIsInvalid) {
  // Keys outside the node's open range must be caught.
  KAryTree t = broken_tree();
  EXPECT_TRUE(t.validate().has_value());
}

}  // namespace
}  // namespace san
