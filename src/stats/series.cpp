#include "stats/series.hpp"

#include <algorithm>
#include <cmath>

namespace san {

double CostSeries::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (Cost v : values_) sum += static_cast<double>(v);
  return sum / static_cast<double>(values_.size());
}

Cost CostSeries::max() const {
  if (values_.empty()) return 0;
  return *std::max_element(values_.begin(), values_.end());
}

Cost CostSeries::percentile(double p) const {
  if (values_.empty()) throw TreeError("CostSeries::percentile: empty series");
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values_.size())));
  std::vector<Cost> copy = values_;
  const auto nth =
      copy.begin() + static_cast<std::ptrdiff_t>(rank == 0 ? 0 : rank - 1);
  std::nth_element(copy.begin(), nth, copy.end());
  return *nth;
}

}  // namespace san
