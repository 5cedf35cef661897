// KAryTree: the k-ary search tree network topology.
//
// Nodes are indexed by their permanent identifier (1..n), so a rotation can
// never "lose" a node: only keys / child links / parent links are rewired.
// The container exposes a low-level mutation API used by the rotation engine
// (rotation.hpp) and the static-tree builders, plus read-only queries used by
// simulation (distance, LCA, routing) and by the validator.
//
// Storage layout: arity is fixed at construction, so every node owns exactly
// k-1 key slots and k child slots carved out of two contiguous
// structure-of-arrays buffers (`keys_`: n*(k-1) RoutingKeys, `children_`:
// n*k NodeIds) plus per-field scalar arrays (parent, slot-in-parent, lo/hi,
// key count). Nothing is heap-allocated after construction — install() and
// link() only overwrite slots in place — which keeps the serve() hot path
// free of allocator traffic. `node(id)` returns a cheap view whose
// `keys`/`children` are spans into the flat buffers.
//
// Pair queries (path_info, lca, distance, route_into, is_ancestor) climb
// from both endpoints alternately and stamp every node they visit with a
// per-query tag, the climbing side and its hop count — one 8-byte word per
// node. The first node one side finds stamped by the other is the LCA, and
// the distance is the sum of the two hop counts, so a query costs at most
// 2 x distance hops however deep its endpoints sit. No per-node state
// outlives a query, so rotations invalidate nothing. Because the stamp
// array is mutable, const queries are NOT safe to call concurrently on the
// same tree (each DP task and each drained shard owns its own tree
// instance).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace san {

/// Read-only view of one network node, returned by value from
/// KAryTree::node(). `keys`/`children` are spans into the tree's flat
/// storage: they never dangle (the buffers live as long as the tree and
/// never reallocate), but a later install() on this node changes the values
/// — and possibly the span length — so re-fetch the view after mutations.
/// `lo`/`hi` cache the identifier range the parent assigns to this node's
/// subtree ([lo, hi)); they make hop-by-hop *local* routing possible (a node
/// can decide "target below me or above me" without global state) and are
/// maintained by the rotation engine in O(1) per rotation.
struct TreeNode {
  NodeId id = kNoNode;
  std::span<const RoutingKey> keys;  ///< strictly increasing, size() <= k-1
  std::span<const NodeId> children;  ///< size() == keys.size()+1, kNoNode = empty
  NodeId parent = kNoNode;
  int slot_in_parent = -1;  ///< index into parent's children, -1 for root
  RoutingKey lo = kKeyMin;  ///< subtree identifier range, inclusive
  RoutingKey hi = kKeyMax;  ///< subtree identifier range, exclusive
};

/// LCA and tree distance of one node pair, computed in a single walk.
struct PathInfo {
  NodeId lca = kNoNode;
  int distance = 0;
};

class KAryTree {
 public:
  /// Creates a tree of `n` detached nodes with ids 1..n and arity `k` >= 2.
  /// A topology must be installed through a builder (shape.hpp) or the
  /// low-level mutators before queries are meaningful. All storage is
  /// allocated here, once.
  KAryTree(int k, int n);

  /// Returns the tree to the state KAryTree(arity(), n) constructs: `n`
  /// detached nodes, no root, cleared query stamps. Storage is reused in
  /// place and only grows when n exceeds every size it held before, which
  /// is how a rebuild keeps its allocations on the thread that resets.
  void reset(int n);

  int arity() const { return k_; }
  int size() const { return n_; }
  NodeId root() const { return root_; }

  /// Cheap by-value view; see TreeNode.
  TreeNode node(NodeId id) const {
    check(id);
    return TreeNode{id,
                    keys(id),
                    children(id),
                    parent_[static_cast<size_t>(id)],
                    slot_in_parent_[static_cast<size_t>(id)],
                    lo_[static_cast<size_t>(id)],
                    hi_[static_cast<size_t>(id)]};
  }

  // --- field accessors (no view construction; hot-path friendly) --------
  NodeId parent(NodeId id) const { return parent_[static_cast<size_t>(check(id))]; }
  int slot_in_parent(NodeId id) const {
    return slot_in_parent_[static_cast<size_t>(check(id))];
  }
  RoutingKey lo(NodeId id) const { return lo_[static_cast<size_t>(check(id))]; }
  RoutingKey hi(NodeId id) const { return hi_[static_cast<size_t>(check(id))]; }
  int num_keys(NodeId id) const { return nkeys_[static_cast<size_t>(check(id))]; }
  int num_children(NodeId id) const { return num_keys(id) + 1; }
  std::span<const RoutingKey> keys(NodeId id) const {
    check(id);
    return {keys_.data() + key_base(id),
            static_cast<size_t>(nkeys_[static_cast<size_t>(id)])};
  }
  std::span<const NodeId> children(NodeId id) const {
    check(id);
    return {children_.data() + child_base(id),
            static_cast<size_t>(nkeys_[static_cast<size_t>(id)]) + 1};
  }
  NodeId child(NodeId id, int slot) const {
    return children_[child_base(check(id)) + static_cast<size_t>(slot)];
  }

  // --- topology queries -----------------------------------------------
  /// Number of edges on the root path: a plain O(depth) walk for
  /// diagnostics and tests, never used by the pair queries. Throws
  /// TreeError on a parent cycle.
  int depth(NodeId id) const;
  /// Lowest common ancestor, from path_info().
  NodeId lca(NodeId u, NodeId v) const;
  /// Tree distance in edges between two nodes, from path_info().
  int distance(NodeId u, NodeId v) const;
  /// LCA and distance from one stamped two-sided walk (see the class
  /// comment) — what serve() needs per request. At most 2 x distance hops.
  /// Throws TreeError when u and v lie in different components or a side
  /// climbs into a parent cycle.
  PathInfo path_info(NodeId u, NodeId v) const;
  /// Nodes of the unique u->v routing path, endpoints included.
  std::vector<NodeId> route(NodeId u, NodeId v) const;
  /// Buffer-reusing variant: replaces `out` with the path and returns its
  /// edge count. No allocation once `out`'s capacity covers the path.
  int route_into(NodeId u, NodeId v, std::vector<NodeId>& out) const;
  /// True iff `anc` lies on the root path of `id` (anc == id counts).
  /// O(distance) via path_info(), whose errors it shares.
  bool is_ancestor(NodeId anc, NodeId id) const;

  /// Descends from the root using the search property only; returns the
  /// visited path. Throws TreeError if the search property is broken in a
  /// way that makes `target` unreachable.
  std::vector<NodeId> search_from_root(NodeId target) const;
  /// Buffer-reusing variant of search_from_root; returns the edge count of
  /// the found path (== depth of `target`).
  int search_from_root_into(NodeId target, std::vector<NodeId>& out) const;

  /// Index of the child interval of `id` that contains `key`:
  /// count of routing keys <= key. O(log k).
  int interval_of(NodeId id, RoutingKey key) const;

  /// Sum over requests of d(u,v): total routing cost of a demand matrix
  /// entry stream is computed by callers; this helper returns d over all
  /// ordered pairs weighted 1 (uniform total distance). O(n).
  Cost uniform_total_distance() const;

  // --- low-level mutation (rotation engine / builders) -----------------
  void set_root(NodeId id);
  /// Installs keys/children on `id` and fixes the parent/slot back-links of
  /// every non-empty child. Does not touch `id`'s own parent link. The
  /// spans are copied into the flat storage; they must not alias this
  /// tree's own key/child buffers. Returns how many children change parent
  /// (were not yet linked below `id`) and, if `edge_changes` is given, adds
  /// their links removed + added to it: that is how a rotation prices
  /// itself (Section 2 cost model) without a before/after snapshot.
  int install(NodeId id, std::span<const RoutingKey> keys,
              std::span<const NodeId> children, RoutingKey lo, RoutingKey hi,
              int* edge_changes = nullptr);
  /// Brace-list convenience for builders and tests.
  void install(NodeId id, std::initializer_list<RoutingKey> keys,
               std::initializer_list<NodeId> children, RoutingKey lo,
               RoutingKey hi) {
    install(id, std::span<const RoutingKey>(keys.begin(), keys.size()),
            std::span<const NodeId>(children.begin(), children.size()), lo, hi);
  }
  /// Points `parent`'s child slot at `child` and sets the back-link.
  /// `parent == kNoNode` makes `child` the root.
  void link(NodeId parent, int slot, NodeId child);

  // --- validation -------------------------------------------------------
  /// Full structural + search-property audit.
  /// Returns std::nullopt when the tree is a valid k-ary search tree
  /// network covering all n nodes, else a human-readable description of the
  /// first violation found.
  std::optional<std::string> validate() const;

  /// Convenience: validate() == nullopt.
  bool valid() const { return !validate().has_value(); }

 private:
  /// Tests drive the query tag across its 32-bit wrap.
  friend struct KAryTreeTestPeer;

  NodeId check(NodeId id) const {
    if (id < 1 || id > n_) throw TreeError("node id out of range");
    return id;
  }
  size_t key_base(NodeId id) const {
    return static_cast<size_t>(id - 1) * static_cast<size_t>(k_ - 1);
  }
  size_t child_base(NodeId id) const {
    return static_cast<size_t>(id - 1) * static_cast<size_t>(k_);
  }

  int k_;
  int n_;
  NodeId root_ = kNoNode;

  // Structure-of-arrays node storage; index 0 unused (ids are 1-based) in
  // the scalar arrays, flat buffers are 0-based via key_base/child_base.
  std::vector<NodeId> parent_;
  std::vector<std::int32_t> slot_in_parent_;
  std::vector<RoutingKey> lo_;
  std::vector<RoutingKey> hi_;
  std::vector<std::int32_t> nkeys_;
  std::vector<RoutingKey> keys_;    ///< n * (k-1) inline key slots
  std::vector<NodeId> children_;    ///< n * k inline child slots

  // Pair-query stamps (see class comment). Mutable: written by const
  // queries. Word = tag << 32 | hops << 1 | side (0 climbs from u, 1 from
  // v); tag 0 is never issued, so a zeroed word is "unvisited".
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint32_t tag_ = 0;  ///< tag of the latest query
};

}  // namespace san
