// Tests for shapes and the shape -> search tree builder.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>

#include "core/shape.hpp"
#include "io/checksum.hpp"
#include "io/tree_io.hpp"

namespace san {
namespace {

int shape_max_kids(const Shape& s) {
  int m = static_cast<int>(s.kids.size());
  for (const Shape& kid : s.kids) m = std::max(m, shape_max_kids(kid));
  return m;
}

int shape_height(const Shape& s) {
  int h = 0;
  for (const Shape& kid : s.kids) h = std::max(h, 1 + shape_height(kid));
  return h;
}

bool shape_last_level_leftmost(const Shape& s) {
  // In a complete tree, child heights are non-increasing left to right and
  // differ by at most one.
  int prev = INT32_MAX;
  for (const Shape& kid : s.kids) {
    int h = shape_height(kid);
    if (h > prev) return false;
    prev = h;
    if (!shape_last_level_leftmost(kid)) return false;
  }
  return true;
}

TEST(Shape, CompleteShapeSizes) {
  for (int k = 2; k <= 6; ++k) {
    for (int n : {1, 2, 3, 5, 7, 15, 16, 31, 100, 365}) {
      Shape s = make_complete_shape(n, k);
      s.recompute_sizes();
      EXPECT_EQ(s.size, n) << "k=" << k << " n=" << n;
      EXPECT_LE(shape_max_kids(s), k);
    }
  }
}

TEST(Shape, CompleteShapeHeightIsLogarithmic) {
  for (int k = 2; k <= 8; ++k) {
    for (int n : {10, 100, 1000}) {
      Shape s = make_complete_shape(n, k);
      const int h = shape_height(s);
      // height of a complete k-ary tree: ceil(log_k(n(k-1)+1)) - 1-ish.
      int cap = 1, levels = 0;
      long long total = 1;
      while (total < n) {
        cap *= k;
        total += cap;
        ++levels;
      }
      EXPECT_EQ(h, levels) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Shape, CompleteShapeFillsLeft) {
  for (int k = 2; k <= 5; ++k)
    for (int n : {4, 9, 23, 77})
      EXPECT_TRUE(shape_last_level_leftmost(make_complete_shape(n, k)))
          << "k=" << k << " n=" << n;
}

TEST(Shape, BuilderProducesValidTreesFromCompleteShapes) {
  for (int k = 2; k <= 7; ++k)
    for (int n : {1, 2, 5, 17, 64, 200}) {
      KAryTree t = build_from_shape(k, make_complete_shape(n, k));
      auto err = t.validate();
      EXPECT_FALSE(err.has_value())
          << "k=" << k << " n=" << n << ": " << *err;
    }
}

TEST(Shape, BuilderProducesValidTreesFromRandomShapes) {
  std::mt19937_64 rng(42);
  for (int k = 2; k <= 10; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      const int n = 1 + static_cast<int>(rng() % 80);
      Shape s = make_random_shape(n, k, rng);
      s.recompute_sizes();
      KAryTree t = build_from_shape(k, s);
      auto err = t.validate();
      ASSERT_FALSE(err.has_value())
          << "k=" << k << " n=" << n << ": " << *err;
      // Every id must be reachable by pure search.
      for (NodeId id = 1; id <= n; ++id)
        EXPECT_EQ(t.search_from_root(id).back(), id);
    }
  }
}

TEST(Shape, PathShapeIsAPath) {
  KAryTree t = build_from_shape(2, make_path_shape(10));
  ASSERT_TRUE(t.valid());
  int leaves = 0;
  for (NodeId id = 1; id <= 10; ++id) {
    int kids = 0;
    for (NodeId c : t.node(id).children)
      if (c != kNoNode) ++kids;
    EXPECT_LE(kids, 1);
    if (kids == 0) ++leaves;
  }
  EXPECT_EQ(leaves, 1);
}

TEST(Shape, BuilderRejectsOverWideShape) {
  Shape s;
  for (int i = 0; i < 4; ++i) s.kids.push_back(Shape{});
  s.self_pos = 2;
  s.recompute_sizes();
  EXPECT_THROW(build_from_shape(3, s), TreeError);
  EXPECT_NO_THROW(build_from_shape(4, s));
}

TEST(Shape, BuilderRejectsEdgeIdWithFullFanOut) {
  // With k children, the id key must double as a boundary between two of
  // them; an edge position would need k keys and is rejected.
  for (int pos : {0, 3}) {
    Shape s;
    for (int i = 0; i < 3; ++i) s.kids.push_back(Shape{});
    s.self_pos = pos;
    s.recompute_sizes();
    EXPECT_THROW(build_from_shape(3, s), TreeError) << pos;
    EXPECT_NO_THROW(build_from_shape(4, s));
  }
}

TEST(Shape, BuilderRejectsSelfPosOutOfRange) {
  // A hand-edited shape that skipped recompute_sizes() must be rejected,
  // not read past its child list.
  for (int pos : {-1, 3}) {
    Shape s;
    for (int i = 0; i < 2; ++i) s.kids.push_back(Shape{});
    s.recompute_sizes();
    s.self_pos = pos;
    EXPECT_THROW(build_from_shape(4, s), TreeError) << pos;
  }
}

// CRC32 of the san-tree text of build_from_shape(k, shape). The text holds
// every node's range, keys (ids, separators, pads) and child slots, so the
// pins below fix the builder's exact layout; the golden costs see it only
// through the costs it induces.
std::uint32_t layout_crc(int k, const Shape& shape) {
  std::ostringstream out;
  write_tree(out, build_from_shape(k, shape));
  return crc32(out.str());
}

struct LayoutPin {
  int k;
  int n;
  std::uint32_t crc;
};

TEST(Shape, BuilderLayoutIsPinnedOnCompleteShapes) {
  const LayoutPin pins[] = {
      {2, 1, 0x20f16a79u},
      {2, 2, 0x2053070cu},
      {2, 3, 0x547760ddu},
      {2, 100, 0x134c6e21u},
      {2, 1000, 0xcc8be342u},
      {3, 1, 0xc7c49badu},
      {3, 2, 0x55718e6eu},
      {3, 3, 0x7bc8923cu},
      {3, 4, 0xd825729fu},
      {3, 100, 0x47644752u},
      {3, 1000, 0x4c37d1ecu},
      {4, 1, 0xe9592badu},
      {4, 2, 0x94426e1fu},
      {4, 4, 0x5b6a371du},
      {4, 5, 0x9cc0f89bu},
      {4, 100, 0xd4196e47u},
      {4, 1000, 0x01e6c60bu},
      {7, 1, 0x2a5d1358u},
      {7, 2, 0xb63781e7u},
      {7, 7, 0x5a76cf17u},
      {7, 8, 0x927564f5u},
      {7, 100, 0x38446f55u},
      {7, 1000, 0xeabbe040u},
  };
  for (const LayoutPin& p : pins)
    EXPECT_EQ(layout_crc(p.k, make_complete_shape(p.n, p.k)), p.crc)
        << "k=" << p.k << " n=" << p.n;
}

TEST(Shape, BuilderLayoutIsPinnedOnPathShapes) {
  const LayoutPin pins[] = {
      {2, 1, 0x20f16a79u},
      {2, 2, 0x52003dd5u},
      {2, 50, 0xfede150cu},
      {2, 300, 0x20d44f5fu},
      {3, 1, 0xc7c49badu},
      {3, 2, 0xfb7e24a1u},
      {3, 50, 0xea31d5dbu},
      {3, 300, 0x60817955u},
      {5, 1, 0xfe7ae960u},
      {5, 2, 0x0e87fc10u},
      {5, 50, 0xe17ae5cbu},
      {5, 300, 0x9f86ef0fu},
  };
  for (const LayoutPin& p : pins)
    EXPECT_EQ(layout_crc(p.k, make_path_shape(p.n)), p.crc)
        << "k=" << p.k << " n=" << p.n;
}

TEST(Shape, BuilderLayoutIsPinnedOnRandomShapes) {
  // One generator across the table: each shape depends on all draws before
  // it, so the pins also fix make_random_shape's draw order.
  const LayoutPin pins[] = {
      {2, 1, 0x20f16a79u},
      {2, 7, 0xd4b7c227u},
      {2, 60, 0x36724bbcu},
      {2, 400, 0xa7ffdffdu},
      {3, 1, 0xc7c49badu},
      {3, 7, 0xc134040au},
      {3, 60, 0x7179d94cu},
      {3, 400, 0x9d9064cbu},
      {5, 1, 0xfe7ae960u},
      {5, 7, 0xb1f0de4au},
      {5, 60, 0xbcd0ac55u},
      {5, 400, 0x569c7eb1u},
      {10, 1, 0x84ae4f8bu},
      {10, 7, 0x9eca0f17u},
      {10, 60, 0xd753bdfbu},
      {10, 400, 0xaf55135cu},
  };
  std::mt19937_64 rng(2024);
  for (const LayoutPin& p : pins)
    EXPECT_EQ(layout_crc(p.k, make_random_shape(p.n, p.k, rng)), p.crc)
        << "k=" << p.k << " n=" << p.n;
}

}  // namespace
}  // namespace san
