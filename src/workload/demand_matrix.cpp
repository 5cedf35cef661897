#include "workload/demand_matrix.hpp"

#include <algorithm>

namespace san {

DemandMatrix::DemandMatrix(int n) : n_(n) {
  if (n < 1) throw TreeError("DemandMatrix needs n >= 1");
  d_.assign(static_cast<size_t>(n) * n, 0);
}

DemandMatrix DemandMatrix::from_trace(const Trace& trace) {
  DemandMatrix m(trace.n);
  for (const Request& r : trace.requests) m.add(r.src, r.dst);
  return m;
}

DemandMatrix DemandMatrix::uniform(int n) {
  DemandMatrix m(n);
  for (NodeId u = 1; u <= n; ++u)
    for (NodeId v = u + 1; v <= n; ++v) m.add(u, v);
  return m;
}

void DemandMatrix::add(NodeId u, NodeId v, Cost count) {
  if (u < 1 || u > n_ || v < 1 || v > n_)
    throw TreeError("DemandMatrix::add: node id out of range");
  d_[index(u, v)] += count;
  total_ += count;
  prefix_ready_ = false;
}

void DemandMatrix::ensure_prefix() const {
  if (prefix_ready_) return;
  const size_t stride = static_cast<size_t>(n_) + 1;
  prefix_.assign(stride * stride, 0);
  row_total_.assign(stride, 0);
  col_total_.assign(stride, 0);
  for (int u = 1; u <= n_; ++u) {
    for (int v = 1; v <= n_; ++v) {
      const Cost val = d_[index(u, v)];
      prefix_[u * stride + v] = val + prefix_[(u - 1) * stride + v] +
                                prefix_[u * stride + (v - 1)] -
                                prefix_[(u - 1) * stride + (v - 1)];
      row_total_[u] += val;
      col_total_[v] += val;
    }
  }
  for (int i = 1; i <= n_; ++i) {
    row_total_[i] += row_total_[i - 1];
    col_total_[i] += col_total_[i - 1];
  }
  prefix_ready_ = true;
}

Cost DemandMatrix::inside(int i, int j) const {
  if (i > j) return 0;
  ensure_prefix();
  const size_t stride = static_cast<size_t>(n_) + 1;
  auto rect = [&](int u, int v) { return prefix_[u * stride + v]; };
  return rect(j, j) - rect(i - 1, j) - rect(j, i - 1) + rect(i - 1, i - 1);
}

Cost DemandMatrix::boundary(int i, int j) const {
  if (i > j) return 0;
  ensure_prefix();
  const Cost rows = row_total_[j] - row_total_[i - 1];  // src in [i,j]
  const Cost cols = col_total_[j] - col_total_[i - 1];  // dst in [i,j]
  return rows + cols - 2 * inside(i, j);
}

Cost DemandMatrix::total_distance(const KAryTree& tree) const {
  // Equals the edge-potential sum of Definition 14 (every edge weighted by
  // the demand crossing it), but the subtree demand sums that route needs
  // cost as much as the pairs themselves without heavy machinery. So each
  // non-zero pair is priced with one distance() walk: O(distance) per pair,
  // O(n^2 * depth) in the worst case, fine for offline-scale n.
  Cost total = 0;
  for (NodeId u = 1; u <= n_; ++u) {
    bool row_empty = true;
    const size_t base = static_cast<size_t>(u - 1) * n_;
    for (int v = 0; v < n_; ++v)
      if (d_[base + v] != 0) {
        row_empty = false;
        break;
      }
    if (row_empty) continue;
    for (NodeId v = 1; v <= n_; ++v) {
      const Cost c = d_[base + (v - 1)];
      if (c != 0 && u != v)
        total += static_cast<Cost>(tree.distance(u, v)) * c;
    }
  }
  return total;
}

}  // namespace san
