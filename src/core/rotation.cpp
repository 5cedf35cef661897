#include "core/rotation.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace san {
namespace {

// Alternating element/interval sequence produced by merging adjacent nodes,
// plus the rotation's running relink count. elems[0, n) are increasing and
// slots[i], i <= n, is the (possibly empty) subtree in the interval
// (elems[i-1], elems[i]), with range sentinels at the ends. Every interval
// holds at most one subtree because each participating node's children
// occupy disjoint consecutive intervals.
//
// A k-splay merges at most 3(k-1) elements, so thread-local arrays of 3k
// elements and 3k + 1 slots, sized once for the largest arity the thread
// has seen, are written and scanned linearly: after the first rotation the
// serve() hot path performs zero allocations.
struct Scratch {
  std::vector<RoutingKey> elems;
  std::vector<NodeId> slots;
  int n = 0;
  RotationResult res;
};

// The scratch for arity `k`, with the relink count reset.
Scratch& scratch_for(int k) {
  thread_local Scratch s;
  const size_t cap = 3 * static_cast<size_t>(k);
  if (s.elems.size() < cap) {
    s.elems.resize(cap);
    s.slots.resize(cap + 1);
  }
  s.res = {};
  return s;
}

// Writes the merged sequence of a root-ward chain into a Scratch in one
// forward pass. Walking down the chain, each ancestor gives its keys left
// of the child the chain descends into, each with the child slot on its
// left; the bottom node gives all of its keys that way, then its last
// slot. Walking back up, each ancestor gives the rest of its keys, each
// with the child slot on its right. So the bottom node's run starts at the
// sum of the descent slots.
class MergeWriter {
 public:
  MergeWriter(Scratch& m, const KAryTree& tree)
      : tree_(tree), e_(m.elems.data()), sl_(m.slots.data()) {}

  // Elements written so far.
  int size() const { return n_; }

  // `id`'s keys [0, at) on the way down to `child`, its child at slot `at`.
  void down(NodeId id, int at, [[maybe_unused]] NodeId child) {
    const std::span<const RoutingKey> ks = tree_.keys(id);
    const std::span<const NodeId> cs = tree_.children(id);
    assert(cs[static_cast<size_t>(at)] == child);
    for (int i = 0; i < at; ++i, ++n_) {
      e_[n_] = ks[static_cast<size_t>(i)];
      sl_[n_] = cs[static_cast<size_t>(i)];
    }
  }
  // All of the chain's bottom node.
  void bottom(NodeId id) {
    const int c = tree_.num_keys(id);
    const NodeId last = tree_.child(id, c);
    down(id, c, last);
    sl_[n_] = last;
  }
  // `id`'s keys [at, end) on the way back up from its child slot `at`.
  void up(NodeId id, int at) {
    const std::span<const RoutingKey> ks = tree_.keys(id);
    const std::span<const NodeId> cs = tree_.children(id);
    for (size_t i = static_cast<size_t>(at); i < ks.size(); ++i, ++n_) {
      e_[n_] = ks[i];
      sl_[n_ + 1] = cs[i + 1];
    }
  }

 private:
  const KAryTree& tree_;
  RoutingKey* e_;
  NodeId* sl_;
  int n_ = 0;
};

// Index of the interval holding `value`: the count of elements <= value.
int interval_index(const Scratch& m, RoutingKey value) {
  int i = 0;
  while (i < m.n && m.elems[static_cast<size_t>(i)] <= value) ++i;
  return i;
}

// Interval-index constraints for a block choice. `hard_*` marks the slot
// range of the splayed node's former children: a pushed-down ancestor's new
// subtree must stay disjoint from them or the splay potential argument (and
// with it the amortized balance) breaks. `soft` marks the interval whose
// inclusion turns the paper's k-splay case 1 (siblings) into case 2
// (nesting chain); it is taken only when unavoidable.
struct BlockAvoid {
  int hard_begin = 0, hard_end = -1;  // inclusive, empty when begin > end
  int soft = -1;
};

// Carves a contiguous block of `s` internal elements (s+1 intervals) out of
// `m`, covering node `id`'s identifier, and installs it as node `id`. The
// block is replaced in `m` by a single slot holding `id`; the new interval
// index of that slot is returned. `outer_lo`/`outer_hi` bound the whole
// merged sequence.
//
// Interval semantics are open: a boundary value belongs to neither side
// (key values are globally unique, so no target can be ambiguous). Hence
// "covering" has two cases: if the node's own id key is one of the merged
// elements, the block must *contain that element* — the node ends in the
// routing-based position with its id as one of its own boundaries; if not,
// the id value lies strictly inside an interval and the block must span
// that interval.
int collapse_block(KAryTree& tree, Scratch& m, NodeId id, int s,
                   BlockPlacement placement, RoutingKey outer_lo,
                   RoutingKey outer_hi, BlockAvoid avoid = {}) {
  const int M = m.n;
  assert(s >= 0 && s <= M);
  RoutingKey* e = m.elems.data();
  NodeId* sl = m.slots.data();
  const RoutingKey v = id_key(id);
  int j = 0;
  while (j < M && e[j] < v) ++j;
  const bool own_key_present = j < M && e[j] == v;
  int a_min, a_max;
  if (own_key_present) {
    if (s == 0) s = 1;  // must take at least the own id key
    a_min = std::max(0, j - s + 1);
    a_max = std::min(j, M - s);
  } else {
    a_min = std::max(0, j - s);
    a_max = std::min(j, M - s);
  }
  assert(a_min <= a_max);

  // Score every feasible window (there are at most k of them): hard
  // violations dominate, then soft ones, then the placement preference.
  const int preferred = (placement == BlockPlacement::kLeftmost) ? a_min
                        : (placement == BlockPlacement::kRightmost)
                            ? a_max
                            : std::clamp(j - s / 2, a_min, a_max);
  int a = preferred;
  int best_score = INT32_MAX;
  for (int cand = a_min; cand <= a_max; ++cand) {
    const int lo_iv = cand, hi_iv = cand + s;  // inclusive interval range
    int score = 0;
    if (avoid.hard_begin <= avoid.hard_end && lo_iv <= avoid.hard_end &&
        hi_iv >= avoid.hard_begin)
      score += 4;
    if (avoid.soft >= lo_iv && avoid.soft <= hi_iv) score += 2;
    score = score * (M + 1) + std::abs(cand - preferred);
    if (score < best_score) {
      best_score = score;
      a = cand;
    }
  }

  const RoutingKey lo = (a == 0) ? outer_lo : e[a - 1];
  const RoutingKey hi = (a + s == M) ? outer_hi : e[a + s];
  // Spans view the scratch buffers; install() copies them into the tree's
  // flat storage before we shrink the merged sequence below.
  m.res.parent_changes += tree.install(
      id, std::span<const RoutingKey>(e + a, static_cast<size_t>(s)),
      std::span<const NodeId>(sl + a, static_cast<size_t>(s) + 1), lo, hi,
      &m.res.edge_changes);

  // Close the gap: the block's s elements and s + 1 slots become one slot.
  sl[a] = id;
  for (int i = a; i < M - s; ++i) {
    e[i] = e[i + s];
    sl[i + 1] = sl[i + s + 1];
  }
  m.n = M - s;
  return a;
}

int clamp_block_size(int desired, int total_remaining, int budget_after,
                     int k) {
  // The block keeps `size` elements; everything not yet assigned must still
  // fit into nodes holding at most k-1 elements each (`budget_after` counts
  // how many such nodes remain).
  const int lower = std::max(0, total_remaining - budget_after * (k - 1));
  const int upper = std::min(k - 1, total_remaining);
  return std::clamp(desired, lower, upper);
}

// Installs the rest of the merged sequence as `x`, the rotated segment's
// new top, and hangs `x` where the segment hung: below `top` at `top_slot`,
// or as the root. `x` itself drops its old parent link and gains one to
// `top`. Returns the rotation's relink count.
RotationResult install_top(KAryTree& tree, Scratch& m, NodeId x, NodeId top,
                           int top_slot, RoutingKey lo, RoutingKey hi) {
  m.res.parent_changes += tree.install(
      x, std::span<const RoutingKey>(m.elems.data(), static_cast<size_t>(m.n)),
      std::span<const NodeId>(m.slots.data(), static_cast<size_t>(m.n) + 1),
      lo, hi, &m.res.edge_changes);
  tree.link(top, top_slot, x);
  ++m.res.parent_changes;
  m.res.edge_changes += top == kNoNode ? 1 : 2;
  return m.res;
}

}  // namespace

RotationResult k_semi_splay(KAryTree& tree, NodeId x,
                            const RotationPolicy& policy) {
  const NodeId p = tree.parent(x);
  if (p == kNoNode) throw TreeError("k_semi_splay: node is the root");
  const int x_slot = tree.slot_in_parent(x);
  const NodeId g = tree.parent(p);
  const int g_slot = tree.slot_in_parent(p);
  const RoutingKey lo = tree.lo(p);
  const RoutingKey hi = tree.hi(p);
  const int k = tree.arity();

  Scratch& m = scratch_for(k);
  MergeWriter w(m, tree);
  w.down(p, x_slot, x);
  w.bottom(x);
  w.up(p, x_slot);
  m.n = w.size();

  const int M = m.n;
  const int desired =
      policy.sizing == BlockSizing::kGreedyMax ? k - 1 : (M + 1) / 2;
  const int s_p = clamp_block_size(desired, M, /*budget_after=*/1, k);
  BlockAvoid p_avoid;
  if (policy.case_preference) p_avoid.soft = interval_index(m, id_key(x));
  collapse_block(tree, m, p, s_p, policy.placement, lo, hi, p_avoid);
  return install_top(tree, m, x, g, g_slot, lo, hi);
}

RotationResult k_splay(KAryTree& tree, NodeId x, const RotationPolicy& policy) {
  const NodeId p = tree.parent(x);
  if (p == kNoNode) throw TreeError("k_splay: node is the root");
  const int x_slot = tree.slot_in_parent(x);
  const NodeId g = tree.parent(p);
  if (g == kNoNode) throw TreeError("k_splay: node has no grandparent");
  const int p_slot = tree.slot_in_parent(p);
  const NodeId top = tree.parent(g);
  const int top_slot = tree.slot_in_parent(g);
  const RoutingKey lo = tree.lo(g);
  const RoutingKey hi = tree.hi(g);
  const int k = tree.arity();

  Scratch& m = scratch_for(k);
  MergeWriter w(m, tree);
  w.down(g, p_slot, p);
  w.down(p, x_slot, x);
  w.bottom(x);
  w.up(p, x_slot);
  w.up(g, p_slot);
  m.n = w.size();
  // x's former child slots begin where g's and p's left parts end.
  const int x_begin = p_slot + x_slot;
  const int x_len = tree.num_children(x);

  const int M = m.n;
  const bool greedy = policy.sizing == BlockSizing::kGreedyMax;
  const int s_g = clamp_block_size(greedy ? k - 1 : (M + 2) / 3, M,
                                   /*budget_after=*/2, k);
  // g's new subtree must not swallow x's former children (hard constraint:
  // that disjointness is what the access-lemma potential argument rests
  // on), and prefers not to swallow p's identifier interval, which would
  // force p to nest under g (paper case 2, the zig-zig analogue).
  BlockAvoid g_avoid;
  if (policy.case_preference) {
    g_avoid.hard_begin = x_begin;
    g_avoid.hard_end = x_begin + x_len - 1;
    g_avoid.soft = interval_index(m, id_key(p));
  }
  const int g_slot =
      collapse_block(tree, m, g, s_g, policy.placement, lo, hi, g_avoid);
  // Re-read the remaining element count: collapse_block may take one extra
  // element when the own-id-key rule forces a non-empty block.
  const int M2 = m.n;
  const int s_p = clamp_block_size(greedy ? k - 1 : (M2 + 1) / 2, M2,
                                   /*budget_after=*/1, k);
  // p prefers to stay g's sibling (case 1); when its identifier interval
  // is swallowed by g's block it chains below (case 2).
  BlockAvoid p_avoid;
  if (policy.case_preference) p_avoid.soft = g_slot;
  collapse_block(tree, m, p, s_p, policy.placement, lo, hi, p_avoid);
  return install_top(tree, m, x, top, top_slot, lo, hi);
}

}  // namespace san
