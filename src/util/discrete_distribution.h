// DiscreteDistribution: O(log n) sampling from a fixed weight vector.
//
// Built once from non-negative weights, sampled many times (binary search
// over the cumulative sums). Used for the crowd's popularity-biased
// resource choice and for drawing tags from latent tag distributions, where
// Rng::NextWeighted's O(n) scan would dominate the simulator.
#ifndef INCENTAG_UTIL_DISCRETE_DISTRIBUTION_H_
#define INCENTAG_UTIL_DISCRETE_DISTRIBUTION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/random.h"

namespace incentag {
namespace util {

// Draws one index of a distribution given by its cumulative sums: the
// first entry whose sum exceeds a uniform draw in [0, total), clamped to
// the last entry. `cdf` must be non-empty and non-decreasing, with
// cdf.back() == total > 0. DiscreteDistribution samples through it, and so
// do callers that keep many distributions' sums in one shared array.
size_t SampleCumulative(std::span<const double> cdf, double total, Rng* rng);

class DiscreteDistribution {
 public:
  DiscreteDistribution() = default;

  // Weights must be non-negative with at least one strictly positive entry.
  explicit DiscreteDistribution(const std::vector<double>& weights);

  bool empty() const { return cdf_.empty(); }
  size_t size() const { return cdf_.size(); }

  // Probability mass of index i.
  double Pmf(size_t i) const;

  // Samples an index proportionally to its weight.
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_DISCRETE_DISTRIBUTION_H_
