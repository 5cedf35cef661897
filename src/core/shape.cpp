#include "core/shape.hpp"

#include <algorithm>

namespace san {

int Shape::recompute_sizes() {
  size = 1;
  for (Shape& kid : kids) size += kid.recompute_sizes();
  self_pos = std::clamp(self_pos, 0, static_cast<int>(kids.size()));
  return size;
}

namespace {

// Id of the root of `shape` laid out over ids [first, first + size).
NodeId root_id(const Shape& shape, NodeId first) {
  for (int i = 0; i < shape.self_pos; ++i) first += shape.kids[i].size;
  return first;
}

}  // namespace

NodeId install_shape(KAryTree& tree, const Shape& shape, NodeId first,
                     RoutingKey lo, RoutingKey hi) {
  const int c = static_cast<int>(shape.kids.size());
  if (c > tree.arity())
    throw TreeError("shape node has more children than the arity allows");
  if (shape.self_pos < 0 || shape.self_pos > c)
    throw TreeError("shape self_pos out of range (see recompute_sizes)");
  const bool edge_self = shape.self_pos == 0 || shape.self_pos == c;
  // Every node keeps its own id key (see types.hpp); an interior self
  // position reuses it as the boundary between two children, an edge
  // position spends an extra key slot on it.
  if (c > 0 && edge_self && c + 1 > tree.arity())
    throw TreeError(
        "shape node with full fan-out must place its id between children");
  // Synthetic separator pads fill the node up to exactly arity-1 keys
  // (saturation invariant, see types.hpp).
  const long pad_count =
      tree.arity() - 1 - (c == 0 ? 1 : c - 1 + (edge_self ? 1 : 0));
  if (pad_count >= kKeySpacing / 2 - 1)
    throw TreeError("arity too large for the key spacing");

  // Lay out identifiers left to right (children before self_pos, the node
  // id, the remaining children) and emit the saturated routing array on
  // the way: one interval per child, an empty interval adjacent to the id
  // key when the id sits at the edge, and the pads right above the id key.
  // Boundaries between two children are mid-gap separators, except at
  // self_pos where the id key itself is the boundary. Pads take values
  // id_key + 1, +2, ...: all below the next real boundary (>= id_key +
  // kKeySpacing/2) and below any descendant id (>= id_key + kKeySpacing),
  // so each pad splits off an empty interval. The node is installed (its
  // arrays copied into the tree) before any child, so one thread-local
  // staging pair serves the whole build: grown to the arity's high-water
  // mark once, it leaves later builds allocation-free per node.
  thread_local std::vector<RoutingKey> keys;
  thread_local std::vector<NodeId> kids;
  keys.clear();
  kids.clear();
  const NodeId my_id = root_id(shape, first);
  NodeId cursor = first;  // first id of the next subtree in the layout
  for (int i = 0; i <= c; ++i) {
    if (i == shape.self_pos) {
      if (i == 0) kids.push_back(kNoNode);
      keys.push_back(id_key(my_id));
      for (long p = 1; p <= pad_count; ++p) {
        kids.push_back(kNoNode);
        keys.push_back(id_key(my_id) + p);
      }
      if (i == c) kids.push_back(kNoNode);
      ++cursor;
    } else if (i > 0 && i < c) {
      keys.push_back(separator_before(cursor));
    }
    if (i < c) {
      kids.push_back(root_id(shape.kids[i], cursor));
      cursor += shape.kids[i].size;
    }
  }
  tree.install(my_id, keys, kids, lo, hi);

  // Recurse with each child's [lo, hi) bounds, read back from the keys
  // just installed.
  const std::span<const RoutingKey> bounds = tree.keys(my_id);
  cursor = first;
  for (int slot = 0, i = 0; i < c; ++slot) {
    if (tree.child(my_id, slot) == kNoNode) continue;
    if (i == shape.self_pos) ++cursor;
    const Shape& kid = shape.kids[static_cast<size_t>(i++)];
    install_shape(tree, kid, cursor, slot == 0 ? lo : bounds[slot - 1],
                  slot == static_cast<int>(bounds.size()) ? hi : bounds[slot]);
    cursor += kid.size;
  }
  return my_id;
}

KAryTree build_from_shape(int k, const Shape& shape) {
  KAryTree tree(k, shape.size);
  NodeId root = install_shape(tree, shape, 1, kKeyMin, kKeyMax);
  tree.set_root(root);
  return tree;
}

Shape make_complete_shape(int n, int k) {
  Shape s;
  s.size = n;
  if (n <= 1) return s;
  s.kids.reserve(static_cast<size_t>(std::min(k, n - 1)));
  // Capacity of a full k-ary subtree of height h is (k^{h+1}-1)/(k-1).
  // Find the height of this tree and hand out last-level slots left-first.
  std::int64_t full_below = 1;  // capacity of a full child subtree
  while (full_below * k + 1 < n) full_below = full_below * k + 1;
  // `full_below` is now the largest full-subtree size with k*full_below+1>=n.
  std::int64_t interior = (full_below - 1) / k;  // full size one level lower
  std::int64_t remaining = n - 1;
  std::int64_t last_level = remaining - static_cast<std::int64_t>(k) * interior;
  for (int i = 0; i < k && remaining > 0; ++i) {
    std::int64_t leaves_here =
        std::min<std::int64_t>(last_level, full_below - interior);
    std::int64_t child_n = std::min(remaining, interior + leaves_here);
    last_level -= leaves_here;
    remaining -= child_n;
    if (child_n > 0) s.kids.push_back(make_complete_shape(
        static_cast<int>(child_n), k));
  }
  s.self_pos = static_cast<int>(s.kids.size()) / 2;
  return s;
}

Shape make_path_shape(int n) {
  Shape s;
  s.size = n;
  if (n > 1) {
    s.kids.push_back(make_path_shape(n - 1));
    s.self_pos = 1;
  }
  return s;
}

Shape make_random_shape(int n, int k, std::mt19937_64& rng) {
  Shape s;
  s.size = n;
  if (n <= 1) return s;
  int remaining = n - 1;
  int max_kids = std::min(k, remaining);
  std::uniform_int_distribution<int> kid_count_dist(1, max_kids);
  int c = kid_count_dist(rng);
  // Random composition of `remaining` into c positive parts.
  std::vector<int> parts(c, 1);
  for (int extra = remaining - c; extra > 0; --extra)
    parts[std::uniform_int_distribution<int>(0, c - 1)(rng)]++;
  for (int part : parts) s.kids.push_back(make_random_shape(part, k, rng));
  // A node with full fan-out must place its id between two children (the id
  // key doubles as the boundary); otherwise any position is allowed.
  const int kid_count = static_cast<int>(s.kids.size());
  if (kid_count == k)
    s.self_pos = std::uniform_int_distribution<int>(1, kid_count - 1)(rng);
  else
    s.self_pos = std::uniform_int_distribution<int>(0, kid_count)(rng);
  return s;
}

}  // namespace san
