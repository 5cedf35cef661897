// Per-request cost series: mean / percentiles / max, used by the CLI to
// report tail behaviour (a reactive SAN trades mean cost against occasional
// expensive reconfiguration bursts; the tail is where that shows).
//
// Thread-safety: the const observers keep no mutable state (percentile
// selects on a copy), so any number of threads may call them concurrently.
// add() is a mutation and requires external exclusion against every other
// member, as usual for containers.
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.hpp"

namespace san {

class CostSeries {
 public:
  void add(Cost value) { values_.push_back(value); }

  std::size_t count() const { return values_.size(); }
  double mean() const;
  Cost max() const;
  /// p in [0, 1]; nearest-rank percentile, selected on a copy of the
  /// series in expected O(count()) time. Throws TreeError when empty.
  Cost percentile(double p) const;

 private:
  std::vector<Cost> values_;
};

}  // namespace san
