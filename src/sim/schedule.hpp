// Intra-shard batch scheduling policies.
//
// FIFO is the bit-exact default: requests are served in arrival order and no
// code on that path changed. kLocality reorders requests *within bounded
// windows* of a drain chunk by tree locality — the sort key is the LCA of the
// request's access path, so requests touching the same subtree region are
// served consecutively while their upper path is cache-hot. Each reordered
// window is then served straight through.
//
// Cost semantics: a locality-scheduled serve is an ordinary sequential serve
// of the *permuted* sequence. The scheduler never interleaves mutations of
// two descents, so the reported routing/rotation costs are exactly what FIFO
// would report for that permutation — deterministic (stable sort over
// deterministic keys), golden-lockable, and honestly different from FIFO's
// costs because splay order matters. Keying a request costs one lca() walk,
// O(distance) however deep the tree (core/karytree.hpp), and never changes
// the topology; the serve then walks the same path once more.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace san {

enum class SchedulePolicy : std::uint8_t {
  kFifo = 0,      ///< arrival order, bit-identical to pre-scheduler behavior
  kLocality = 1,  ///< windowed LCA-cluster reorder
};

const char* schedule_policy_name(SchedulePolicy p);

struct ScheduleConfig {
  SchedulePolicy policy = SchedulePolicy::kFifo;
  /// Reorder window: requests may only be permuted within consecutive
  /// windows of this many requests (per shard, never across a drain-chunk
  /// boundary), bounding how far any request can be deferred past its
  /// arrival position.
  int window = 1024;

  bool reorders() const { return policy == SchedulePolicy::kLocality; }
  /// Rejects a non-positive window. Called by every engine entry point
  /// before any request is served.
  void validate() const;
};

/// Endpoints of one schedulable operation, resolved into the id space of the
/// tree being scheduled. `v == kNoNode` marks a root ascent (sharded first
/// leg / access): it is keyed against the current root.
struct ScheduleEndpoints {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
};

/// Windowed locality scheduler, generic over the operation type (Request,
/// ShardOp, frontend QueueItem) via a caller-supplied `resolve` mapping an
/// op to ScheduleEndpoints, and over the tree type: any tree with
/// `lca(u,v)`/`root()` (a KAryTree, a BinarySplayNet) is keyed the same
/// way.
class LocalityScheduler {
 public:
  explicit LocalityScheduler(const ScheduleConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
  }

  /// Requests whose final serve position differed from their arrival
  /// position, accumulated over every window this scheduler processed.
  Cost reordered() const { return reordered_; }

  /// Serves `ops` under the configured policy: each window is reordered
  /// against the tree's current topology, then served in that order.
  /// `serve` is invoked exactly once per op, in the scheduled order.
  template <typename TreeT, typename Op, typename Resolve, typename ServeFn>
  void run(const TreeT& tree, std::span<Op> ops, Resolve&& resolve,
           ServeFn&& serve) {
    if (!cfg_.reorders()) {
      for (Op& op : ops) serve(op);
      return;
    }
    const size_t w = static_cast<size_t>(cfg_.window);
    for (size_t base = 0; base < ops.size(); base += w) {
      std::span<Op> win = ops.subspan(base, std::min(w, ops.size() - base));
      reorder(tree, win, resolve);
      for (Op& op : win) serve(op);
    }
  }

  /// The reorder pass alone (exposed for tests and for engines that manage
  /// their own serve loop): stable-sorts one window by locality key and
  /// applies the permutation in place. Mutation-free with respect to the
  /// tree.
  template <typename TreeT, typename Op, typename Resolve>
  void reorder(const TreeT& tree, std::span<Op> ops, Resolve&& resolve) {
    const size_t m = ops.size();
    if (m < 2) return;
    keys_.resize(m);
    const NodeId root = tree.root();
    for (size_t i = 0; i < m; ++i) {
      const ScheduleEndpoints ep = resolve(ops[i]);
      const NodeId v = ep.v == kNoNode ? root : ep.v;
      keys_[i] = (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(tree.lca(ep.u, v)))
                  << 32) |
                 static_cast<std::uint32_t>(std::min(ep.u, v));
    }
    order_.resize(m);
    std::iota(order_.begin(), order_.end(), size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
      return keys_[a] < keys_[b];
    });
    bool moved = false;
    for (size_t i = 0; i < m; ++i) {
      if (order_[i] != i) {
        ++reordered_;
        moved = true;
      }
    }
    if (!moved) return;
    // Apply the permutation in place by cycle-following (order_ is consumed:
    // visited slots are marked by pointing them at themselves).
    for (size_t i = 0; i < m; ++i) {
      size_t cur = i;
      while (order_[cur] != cur) {
        const size_t src = order_[cur];
        std::swap(ops[cur], ops[src]);
        order_[cur] = cur;
        cur = src;
      }
    }
  }

 private:
  ScheduleConfig cfg_;
  Cost reordered_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<size_t> order_;
};

}  // namespace san
