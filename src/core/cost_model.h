// Per-resource post-task costs — the extension the paper sketches in
// Section III-C: "we assume that every post task is given one reward unit.
// We remark that our solution can easily be extended to handle post tasks
// of different reward amounts."
//
// A CostModel assigns each resource a positive integer reward amount per
// post task (e.g., unpopular resources must offer more to attract a
// tagger). The allocation engine charges the chosen resource's cost per
// completed task, and the DP planner given the model plans with stride
// cost(i) and spend <= budget (DpPlanner::Plan's `costs`).
#ifndef INCENTAG_CORE_COST_MODEL_H_
#define INCENTAG_CORE_COST_MODEL_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/types.h"

namespace incentag {
namespace core {

class CostModel {
 public:
  // All costs must be >= 1.
  explicit CostModel(std::vector<int64_t> costs)
      : costs_(std::move(costs)) {
    for (int64_t c : costs_) {
      assert(c >= 1);
      (void)c;
    }
  }

  // Every task costs `cost` (the paper's base model with cost = 1).
  static CostModel Uniform(size_t n, int64_t cost = 1) {
    return CostModel(std::vector<int64_t>(n, cost));
  }

  size_t num_resources() const { return costs_.size(); }

  int64_t cost(ResourceId i) const {
    assert(i < costs_.size());
    return costs_[i];
  }

  int64_t max_cost() const {
    return costs_.empty()
               ? 0
               : *std::max_element(costs_.begin(), costs_.end());
  }

  int64_t min_cost() const {
    return costs_.empty()
               ? 0
               : *std::min_element(costs_.begin(), costs_.end());
  }

  const std::vector<int64_t>& costs() const { return costs_; }

 private:
  std::vector<int64_t> costs_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_COST_MODEL_H_
