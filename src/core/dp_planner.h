// The theoretically-optimal offline allocator (paper Section III-D,
// Appendix B, Algorithm 6).
//
// DP assumes two things no practical strategy may use: the reference stable
// rfds phi_hat_i (to evaluate q_i) and the full future post sequences (to
// know what each additional post task yields). Given those, it maximises
//
//   sum_i q_i(c_i + x_i)   subject to   sum_i x_i = B, x_i >= 0
//
// with the recurrence of Eq. 14/17 and reconstructs the argmax assignment
// via the y-table of Eq. 18/19.
//
// Complexity: the per-resource quality tables q_l(c_l + x) are built
// incrementally in O(posts consumed); the DP itself is O(n B^2) time and
// O(n B) space (for the reconstruction table), matching Table V.
#ifndef INCENTAG_CORE_DP_PLANNER_H_
#define INCENTAG_CORE_DP_PLANNER_H_

#include <cstdint>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/cost_model.h"
#include "src/core/post_store.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/util/status.h"

namespace incentag {
namespace core {

struct DpPlan {
  // x: optimal number of post tasks per resource; sums to the budget.
  std::vector<int64_t> allocation;
  // The optimal objective value sum_i q_i(c_i + x_i) (not averaged).
  double optimal_total_quality = 0.0;
};

class DpPlanner {
 public:
  // Computes the optimal plan. `future[i]` holds resource i's known future
  // posts, in the order it would receive them; a resource cannot be
  // allocated more tasks than it holds.
  static util::Result<DpPlan> Plan(
      const PostStore& initial_posts,
      const std::vector<ResourceReference>& references,
      const PostStore& future, int64_t budget);

  // Cost-aware variant (the Section III-C extension): task x on resource i
  // costs `costs.cost(i)` reward units and the plan's total cost must not
  // exceed `budget` (<=, not ==: with heterogeneous costs an exact spend
  // may be infeasible). Reduces to Plan's objective when all costs are 1,
  // except that leftover budget is allowed.
  static util::Result<DpPlan> PlanWithCosts(
      const PostStore& initial_posts,
      const std::vector<ResourceReference>& references,
      const PostStore& future, int64_t budget, const CostModel& costs);

  // Builds one resource's quality table: q_l(c_l + x) for x = 0..max_x.
  // Exposed for tests and for the ablation bench.
  static std::vector<double> QualityTable(
      PostSequence initial_posts, const ResourceReference& reference,
      const PostStore& future, ResourceId resource, int64_t max_x);
};

// Adapts a fixed allocation plan to the Strategy interface so the engine
// can execute and evaluate DP exactly like the online strategies. Tasks
// are dispensed resource-by-resource in id order.
class PlanStrategy : public Strategy {
 public:
  explicit PlanStrategy(std::vector<int64_t> allocation)
      : remaining_(std::move(allocation)) {}

  std::string_view name() const override { return "DP"; }

  void Init(const StrategyContext& /*ctx*/) override { cursor_ = 0; }

  ResourceId Choose() override {
    while (cursor_ < remaining_.size() && remaining_[cursor_] <= 0) {
      ++cursor_;
    }
    if (cursor_ >= remaining_.size()) return kInvalidResource;
    return static_cast<ResourceId>(cursor_);
  }

  // The plan is consumed at assignment time so batched engines cannot
  // over-assign a resource.
  void OnAssigned(ResourceId chosen) override { --remaining_[chosen]; }

  void Update(ResourceId /*chosen*/) override {}

  void OnExhausted(ResourceId i) override { remaining_[i] = 0; }

  void SerializeState(std::string* out) const override {
    util::wire::PutU64(out, static_cast<uint64_t>(cursor_));
    util::wire::PutU64(out, static_cast<uint64_t>(remaining_.size()));
    for (int64_t r : remaining_) util::wire::PutI64(out, r);
  }

  util::Status RestoreState(const StrategyContext& /*ctx*/,
                            std::string_view state) override {
    util::wire::Reader in(state);
    uint64_t cursor = 0;
    uint64_t n = 0;
    if (!in.GetU64(&cursor) || !in.GetU64(&n) || n != remaining_.size() ||
        cursor > remaining_.size()) {
      return util::Status::Corruption("malformed DP strategy state");
    }
    cursor_ = static_cast<size_t>(cursor);
    for (int64_t& r : remaining_) {
      if (!in.GetI64(&r)) {
        return util::Status::Corruption("short DP strategy state");
      }
    }
    if (!in.exhausted()) {
      return util::Status::Corruption("trailing bytes in DP strategy state");
    }
    return util::Status::OK();
  }

 private:
  std::vector<int64_t> remaining_;
  size_t cursor_ = 0;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_DP_PLANNER_H_
