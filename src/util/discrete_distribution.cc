#include "src/util/discrete_distribution.h"

#include <algorithm>
#include <cassert>

namespace incentag {
namespace util {

DiscreteDistribution::DiscreteDistribution(
    const std::vector<double>& weights) {
  cdf_.reserve(weights.size());
  for (double w : weights) {
    assert(w >= 0.0);
    total_ += w;
    cdf_.push_back(total_);
  }
  assert(total_ > 0.0);
}

double DiscreteDistribution::Pmf(size_t i) const {
  assert(i < cdf_.size());
  double prev = (i == 0) ? 0.0 : cdf_[i - 1];
  return (cdf_[i] - prev) / total_;
}

size_t SampleCumulative(std::span<const double> cdf, double total,
                        Rng* rng) {
  assert(!cdf.empty());
  const double target = rng->NextDouble() * total;
  auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  if (it == cdf.end()) --it;
  return static_cast<size_t>(it - cdf.begin());
}

size_t DiscreteDistribution::Sample(Rng* rng) const {
  return SampleCumulative(cdf_, total_, rng);
}

}  // namespace util
}  // namespace incentag
