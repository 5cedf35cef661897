#include "core/karytree.hpp"

#include <algorithm>
#include <sstream>

namespace san {

KAryTree::KAryTree(int k, int n) : k_(k), n_(0) {
  if (k < 2) throw TreeError("arity must be >= 2");
  reset(n);
}

void KAryTree::reset(int n) {
  if (n < 1) throw TreeError("tree needs at least one node");
  n_ = n;
  root_ = kNoNode;
  const size_t slots = static_cast<size_t>(n) + 1;
  parent_.assign(slots, kNoNode);
  slot_in_parent_.assign(slots, -1);
  lo_.assign(slots, kKeyMin);
  hi_.assign(slots, kKeyMax);
  nkeys_.assign(slots, 0);  // zero keys -> one (empty) interval
  keys_.assign(static_cast<size_t>(n) * static_cast<size_t>(k_ - 1), 0);
  children_.assign(static_cast<size_t>(n) * static_cast<size_t>(k_), kNoNode);
  stamp_.assign(slots, 0);
  tag_ = 0;
}

int KAryTree::depth(NodeId id) const {
  int d = 0;
  for (NodeId cur = parent_[static_cast<size_t>(check(id))]; cur != kNoNode;
       cur = parent_[static_cast<size_t>(cur)])
    if (++d > n_) throw TreeError("parent cycle detected in depth()");
  return d;
}

NodeId KAryTree::lca(NodeId u, NodeId v) const { return path_info(u, v).lca; }

int KAryTree::distance(NodeId u, NodeId v) const {
  return path_info(u, v).distance;
}

PathInfo KAryTree::path_info(NodeId u, NodeId v) const {
  check(u);
  check(v);
  if (u == v) return PathInfo{u, 0};
  if (++tag_ == 0) {  // wrapped: clear every stamp so none aliases a new tag
    std::fill(stamp_.begin(), stamp_.end(), 0);
    tag_ = 1;
  }
  const std::uint64_t tag = std::uint64_t{tag_} << 32;
  std::uint64_t* const stamp = stamp_.data();
  stamp[static_cast<size_t>(u)] = tag;
  stamp[static_cast<size_t>(v)] = tag | 1;
  PathInfo met;
  // One hop of one side; true once it steps onto the other side's stamp.
  const auto climb = [&](NodeId& x, std::uint64_t& hops, std::uint64_t side) {
    x = parent_[static_cast<size_t>(x)];
    if (x == kNoNode) return false;
    ++hops;
    std::uint64_t& word = stamp[static_cast<size_t>(x)];
    if (((word ^ tag) >> 32) == 0) {  // stamped earlier in this query
      if ((word & 1) == side)
        throw TreeError("parent cycle detected in path_info()");
      met = PathInfo{x, static_cast<int>(hops + ((word & 0xffffffffu) >> 1))};
      return true;
    }
    word = tag | (hops << 1) | side;
    return false;
  };
  NodeId a = u;
  NodeId b = v;
  std::uint64_t ha = 0;
  std::uint64_t hb = 0;
  while (a != kNoNode || b != kNoNode) {
    if (a != kNoNode && climb(a, ha, 0)) return met;
    if (b != kNoNode && climb(b, hb, 1)) return met;
  }
  throw TreeError("nodes are in disconnected components");
}

int KAryTree::route_into(NodeId u, NodeId v, std::vector<NodeId>& out) const {
  const PathInfo p = path_info(u, v);
  out.resize(static_cast<size_t>(p.distance) + 1);
  size_t i = 0;
  for (NodeId a = u; a != p.lca; a = parent_[static_cast<size_t>(a)])
    out[i++] = a;
  out[i] = p.lca;
  size_t j = static_cast<size_t>(p.distance);
  for (NodeId b = v; b != p.lca; b = parent_[static_cast<size_t>(b)])
    out[j--] = b;
  return p.distance;
}

std::vector<NodeId> KAryTree::route(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  route_into(u, v, out);
  return out;
}

bool KAryTree::is_ancestor(NodeId anc, NodeId id) const {
  return path_info(anc, id).lca == anc;
}

int KAryTree::interval_of(NodeId id, RoutingKey key) const {
  const std::span<const RoutingKey> ks = keys(id);
  return static_cast<int>(std::upper_bound(ks.begin(), ks.end(), key) -
                          ks.begin());
}

int KAryTree::search_from_root_into(NodeId target,
                                    std::vector<NodeId>& out) const {
  check(target);
  out.clear();
  NodeId cur = root_;
  while (true) {
    if (cur == kNoNode) throw TreeError("search fell off the tree");
    out.push_back(cur);
    if (cur == target) return static_cast<int>(out.size()) - 1;
    if (out.size() > static_cast<size_t>(n_))
      throw TreeError("search path longer than tree size");
    cur = child(cur, interval_of(cur, id_key(target)));
  }
}

std::vector<NodeId> KAryTree::search_from_root(NodeId target) const {
  std::vector<NodeId> path;
  search_from_root_into(target, path);
  return path;
}

Cost KAryTree::uniform_total_distance() const {
  // Sum of subtree-size * (n - subtree-size) over all edges equals the sum
  // of pairwise distances over ordered pairs divided by 2; we return the
  // ordered-pair total to match TotalDistance(D_uniform, T) with D the
  // upper-triangular all-ones matrix: each unordered pair counted once.
  std::vector<int> sz(static_cast<size_t>(n_) + 1, 1);
  // children-before-parent order via iterative post-order on ids reachable
  // from the root.
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(n_));
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    for (NodeId c : children(cur))
      if (c != kNoNode) stack.push_back(c);
  }
  Cost total = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId cur = *it;
    const NodeId par = parent_[static_cast<size_t>(cur)];
    if (par != kNoNode) {
      sz[static_cast<size_t>(par)] += sz[static_cast<size_t>(cur)];
      total += static_cast<Cost>(sz[static_cast<size_t>(cur)]) *
               (n_ - sz[static_cast<size_t>(cur)]);
    }
  }
  return total;
}

void KAryTree::set_root(NodeId id) {
  check(id);
  root_ = id;
  parent_[static_cast<size_t>(id)] = kNoNode;
  slot_in_parent_[static_cast<size_t>(id)] = -1;
  lo_[static_cast<size_t>(id)] = kKeyMin;
  hi_[static_cast<size_t>(id)] = kKeyMax;
}

void KAryTree::link(NodeId parent, int slot, NodeId child) {
  check(child);
  if (parent == kNoNode) {
    set_root(child);
    return;
  }
  check(parent);
  if (slot < 0 || slot > nkeys_[static_cast<size_t>(parent)])
    throw TreeError("link: slot out of range");
  children_[child_base(parent) + static_cast<size_t>(slot)] = child;
  parent_[static_cast<size_t>(child)] = parent;
  slot_in_parent_[static_cast<size_t>(child)] = slot;
}

std::optional<std::string> KAryTree::validate() const {
  std::ostringstream err;
  if (root_ == kNoNode) return "no root set";
  if (parent_[static_cast<size_t>(root_)] != kNoNode)
    return "root has a parent";

  // DFS with explicit [lo, hi) ranges; checks structure and the search
  // property.
  struct Frame {
    NodeId id;
    RoutingKey lo, hi;
  };
  std::vector<bool> seen(static_cast<size_t>(n_) + 1, false);
  std::vector<Frame> stack = {{root_, kKeyMin, kKeyMax}};
  int visited = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const TreeNode nd = node(f.id);
    if (seen[static_cast<size_t>(f.id)]) {
      err << "node " << f.id << " reached twice (not a tree)";
      return err.str();
    }
    seen[static_cast<size_t>(f.id)] = true;
    ++visited;
    // Open-interval semantics: the id value must lie strictly inside the
    // node's range (boundary values belong to neither side).
    if (id_key(f.id) <= f.lo || id_key(f.id) >= f.hi) {
      err << "node " << f.id << " violates its range [" << f.lo << ", " << f.hi
          << ")";
      return err.str();
    }
    if (nd.lo != f.lo || nd.hi != f.hi) {
      err << "node " << f.id << " has stale cached range";
      return err.str();
    }
    if (static_cast<int>(nd.keys.size()) > k_ - 1) {
      err << "node " << f.id << " has " << nd.keys.size()
          << " routing keys, max is " << (k_ - 1);
      return err.str();
    }
    if (nd.children.size() != nd.keys.size() + 1) {
      err << "node " << f.id << " children/keys size mismatch";
      return err.str();
    }
    for (size_t i = 0; i + 1 < nd.keys.size(); ++i) {
      if (nd.keys[i] >= nd.keys[i + 1]) {
        err << "node " << f.id << " routing keys not strictly increasing";
        return err.str();
      }
    }
    for (const RoutingKey rk : nd.keys) {
      if (rk <= f.lo || rk >= f.hi) {
        // A key equal to lo would create an empty leading interval that can
        // never receive a subtree root id; keys outside the range are
        // always rotation-engine bugs, so reject both.
        if (!(rk > f.lo && rk < f.hi)) {
          err << "node " << f.id << " routing key " << rk
              << " outside open range (" << f.lo << ", " << f.hi << ")";
          return err.str();
        }
      }
    }
    for (int s = 0; s < static_cast<int>(nd.children.size()); ++s) {
      NodeId c = nd.children[static_cast<size_t>(s)];
      if (c == kNoNode) continue;
      if (parent_[static_cast<size_t>(c)] != f.id ||
          slot_in_parent_[static_cast<size_t>(c)] != s) {
        err << "child " << c << " of node " << f.id << " has bad back-link";
        return err.str();
      }
      RoutingKey clo = (s == 0) ? f.lo : nd.keys[static_cast<size_t>(s - 1)];
      RoutingKey chi = (s == static_cast<int>(nd.keys.size()))
                           ? f.hi
                           : nd.keys[static_cast<size_t>(s)];
      stack.push_back({c, clo, chi});
    }
  }
  if (visited != n_) {
    err << "only " << visited << " of " << n_ << " nodes reachable from root";
    return err.str();
  }
  return std::nullopt;
}

}  // namespace san
