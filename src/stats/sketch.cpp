#include "stats/sketch.hpp"

#include <algorithm>

#include "core/rng.hpp"
#include "core/types.hpp"

namespace san {

namespace {

std::size_t round_up_pow2(std::size_t x) {
  std::size_t p = 8;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

CountMinSketch::CountMinSketch(std::size_t width, int depth,
                               std::uint64_t seed)
    : seed_(seed) {
  if (depth < 1 || depth > 16)
    throw TreeError("CountMinSketch: depth must be in [1, 16]");
  width_ = round_up_pow2(width);
  mask_ = width_ - 1;
  depth_ = depth;
  cells_.assign(width_ * static_cast<std::size_t>(depth_), 0.0);
}

std::size_t CountMinSketch::cell_index(std::uint64_t key, int row) const {
  // Row salting: mix the row index through splitmix64 first so rows are
  // pairwise independent even for adjacent seeds, then mix the key in.
  const std::uint64_t salt =
      splitmix64_mix(seed_ + 0x9e3779b97f4a7c15ull *
                                 static_cast<std::uint64_t>(row + 1));
  const std::uint64_t h = splitmix64_mix(key ^ salt);
  return static_cast<std::size_t>(row) * width_ +
         static_cast<std::size_t>(h & mask_);
}

void CountMinSketch::observe(std::uint64_t key, double weight) {
  for (int row = 0; row < depth_; ++row) cells_[cell_index(key, row)] += weight;
  total_ += weight;
}

double CountMinSketch::estimate(std::uint64_t key) const {
  double best = cells_[cell_index(key, 0)];
  for (int row = 1; row < depth_; ++row)
    best = std::min(best, cells_[cell_index(key, row)]);
  return best;
}

void CountMinSketch::scale(double factor) {
  for (double& c : cells_) c *= factor;
  total_ *= factor;
}

void CountMinSketch::merge(const CountMinSketch& other) {
  if (width_ != other.width_ || depth_ != other.depth_ ||
      seed_ != other.seed_)
    throw TreeError(
        "CountMinSketch::merge: width/depth/seed mismatch — differently "
        "shaped sketches do not share index functions");
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

void CountMinSketch::clear() {
  std::fill(cells_.begin(), cells_.end(), 0.0);
  total_ = 0.0;
}

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 1) throw TreeError("SpaceSaving: capacity must be >= 1");
}

void SpaceSaving::observe(std::uint64_t key, double weight) {
  const auto it = items_.find(key);
  if (it != items_.end()) {
    order_.erase({it->second.count, key});
    it->second.count += weight;
    order_.insert({it->second.count, key});
    return;
  }
  if (items_.size() < capacity_) {
    items_.emplace(key, Item{weight, 0.0});
    order_.insert({weight, key});
    return;
  }
  // Evict the deterministic minimum (smallest count, then smallest key);
  // the newcomer inherits its count as the space-saving error bound.
  const auto victim = order_.begin();
  const double floor = victim->first;
  items_.erase(victim->second);
  order_.erase(victim);
  items_.emplace(key, Item{floor + weight, floor});
  order_.insert({floor + weight, key});
}

double SpaceSaving::count(std::uint64_t key) const {
  const auto it = items_.find(key);
  return it == items_.end() ? 0.0 : it->second.count;
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(items_.size());
  for (const auto& [key, item] : items_)
    out.push_back({key, item.count, item.error});
  // (count desc, key asc): the exact window's planner order, and
  // independent of hash-map iteration order.
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

void SpaceSaving::scale(double factor) {
  // A positive factor preserves the (count, key) order, so the new set can
  // be rebuilt from the old one in sorted order (O(k) via end-hints).
  std::set<std::pair<double, std::uint64_t>> scaled;
  for (const auto& [count, key] : order_)
    scaled.emplace_hint(scaled.end(), count * factor, key);
  order_ = std::move(scaled);
  for (auto& [key, item] : items_) {
    item.count *= factor;
    item.error *= factor;
  }
}

void SpaceSaving::prune_below(double cut) {
  while (!order_.empty() && order_.begin()->first < cut) {
    items_.erase(order_.begin()->second);
    order_.erase(order_.begin());
  }
}

void SpaceSaving::merge(const SpaceSaving& other) {
  for (const auto& [key, item] : other.items_) {
    const auto it = items_.find(key);
    if (it == items_.end()) {
      items_.emplace(key, item);
    } else {
      it->second.count += item.count;
      it->second.error += item.error;
    }
  }
  // Rebuild the order index once, then truncate to capacity by evicting
  // the lightest entries (smallest count, then smallest key) — the same
  // deterministic victim rule observe() uses.
  order_.clear();
  for (const auto& [key, item] : items_) order_.insert({item.count, key});
  while (items_.size() > capacity_) {
    items_.erase(order_.begin()->second);
    order_.erase(order_.begin());
  }
}

void SpaceSaving::clear() {
  items_.clear();
  order_.clear();
}

}  // namespace san
