// The theoretically-optimal offline allocator (paper Section III-D,
// Appendix B, Algorithm 6), with the Section III-C variable rewards.
//
// DP assumes two things no practical strategy may use: the reference stable
// rfds phi_hat_i (to evaluate q_i) and the full future post sequences (to
// know what each additional post task yields). Given those, it maximises
//
//   sum_i q_i(c_i + x_i)   subject to   sum_i cost_i x_i (== or <=) B
//
// with one recurrence (Eq. 14/17), Q(b, l) = max_x Q(b - cost_l x, l-1) +
// q_l(c_l + x), and reconstructs the argmax assignment via the y-table of
// Eq. 18/19. Without a cost model every task costs 1 and the row before
// resource 0 is Q(0) = 0, Q(b > 0) = -infinity, so a plan spends exactly B
// (the paper's ==). With a cost model that row is 0 everywhere and a plan
// spends at most B (<=: with heterogeneous costs an exact spend may be
// infeasible).
//
// The y-table's cell for budget b does not depend on the largest budget,
// so PlanSweep plans a list of budgets from one table.
//
// Complexity: the per-resource quality tables q_l(c_l + x) are built
// incrementally in O(posts consumed); the DP itself is O(n B^2) time and
// O(n B) space (for the reconstruction table), matching Table V. A cell
// is 2 bytes when every resource's cap fits int16_t, else 4.
#ifndef INCENTAG_CORE_DP_PLANNER_H_
#define INCENTAG_CORE_DP_PLANNER_H_

#include <cstdint>
#include <span>
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
  // x: optimal number of post tasks per resource; costs exactly the budget
  // without a cost model, at most the budget with one.
  std::vector<int64_t> allocation;
  // The optimal objective value sum_i q_i(c_i + x_i) (not averaged).
  double optimal_total_quality = 0.0;
};

class DpPlanner {
 public:
  // Computes the optimal plan for each of `budgets`, in the order given,
  // from one table as wide as the largest. `future[i]` holds resource i's
  // known future posts, in the order it would receive them; a resource
  // cannot be allocated more tasks than it holds. With `costs`, task x on
  // resource i costs `costs->cost(i)` reward units and a plan spends at
  // most its budget; without, it spends exactly its budget, and a budget
  // beyond the total supply fails the whole sweep with FailedPrecondition.
  static util::Result<std::vector<DpPlan>> PlanSweep(
      const PostStore& initial_posts,
      const std::vector<ResourceReference>& references,
      const PostStore& future, std::span<const int64_t> budgets,
      const CostModel* costs = nullptr);

  // PlanSweep of the one budget.
  static util::Result<DpPlan> Plan(
      const PostStore& initial_posts,
      const std::vector<ResourceReference>& references,
      const PostStore& future, int64_t budget,
      const CostModel* costs = nullptr);

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
