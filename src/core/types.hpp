// Core scalar types and conventions shared by all san:: libraries.
//
// A k-ary search tree *network* (paper, Definition 1) is a rooted tree over
// network nodes 1..n. Each node carries
//   * a permanent identifier (NodeId) that never changes across rotations,
//   * a sorted array of at most k-1 routing keys (RoutingKey),
//   * up to k children, one per routing interval.
//
// Interval convention: child i of a node with routing keys r_1 < ... < r_m
// owns identifiers in the half-open interval [r_i, r_{i+1}) with sentinels
// r_0 = kKeyMin, r_{m+1} = kKeyMax. A node's own identifier must lie inside
// the range assigned to it by its parent; lookups test the local identifier
// before descending, so the identifier may lie inside any child interval
// without violating the search property.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace san {

/// Permanent network-node identifier. Valid ids are 1..n; kNoNode marks
/// empty child slots and absent parents.
using NodeId = std::int32_t;

/// Routing element. Drawn from an ordered universe strictly larger than the
/// identifier set (Definition 1: "routing elements (not keys)"): identifier
/// i maps to key value i * kKeySpacing, leaving room for synthetic
/// *separator* values between any two consecutive identifiers.
///
/// Construction establishes the *saturation invariant* the paper's Figure 3
/// depicts: every node holds exactly k-1 routing elements (real child
/// boundaries, its own id key, plus synthetic separators padding unused
/// capacity with empty intervals). Rotations merge and re-split complete
/// routing arrays (k-1 + k-1 [+ k-1] elements), so saturation — and with
/// it the splay-tree balance argument — is preserved forever; the key
/// multiset never changes after construction. Without saturation a node's
/// fan-out is capped by the keys it happens to hold and the self-adjusting
/// trees measurably degenerate toward chains. At k = 2 this scheme is
/// exactly the classic splay tree (one permanent key per node).
using RoutingKey = std::int64_t;

/// Gap between consecutive identifier key values; bounds the number of
/// synthetic separators that fit between two ids (k - 2 are needed at most,
/// so arities up to kKeySpacing / 2 are supported).
inline constexpr RoutingKey kKeySpacing = RoutingKey{1} << 20;

/// Key value of node id `i`.
inline constexpr RoutingKey id_key(NodeId id) {
  return static_cast<RoutingKey>(id) * kKeySpacing;
}

/// The synthetic separator at the midpoint below id `i`: strictly between
/// id_key(i - 1) and id_key(i).
inline constexpr RoutingKey separator_before(NodeId id) {
  return id_key(id) - kKeySpacing / 2;
}

inline constexpr NodeId kNoNode = 0;
inline constexpr RoutingKey kKeyMin = std::numeric_limits<RoutingKey>::min();
inline constexpr RoutingKey kKeyMax = std::numeric_limits<RoutingKey>::max();

/// Cost scalar used throughout the simulation (distances, potentials,
/// total service cost). 64-bit: total distance of a 10^6-request trace on
/// 10^4 nodes exceeds 2^32.
using Cost = std::int64_t;

inline constexpr Cost kInfiniteCost = std::numeric_limits<Cost>::max() / 4;

/// Thrown on API misuse (invalid arity, ids out of range, malformed input).
class TreeError : public std::runtime_error {
 public:
  explicit TreeError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace san
