#include "src/core/dp_planner.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "src/core/quality.h"
#include "src/core/rfd.h"
#include "src/util/logging.h"

namespace incentag {
namespace core {

std::vector<double> DpPlanner::QualityTable(
    PostSequence initial_posts, const ResourceReference& reference,
    const PostStore& future, ResourceId resource, int64_t max_x) {
  TagCounts counts;
  QualityTracker tracker(&reference.stable_rfd);
  for (PostView post : initial_posts) {
    counts.AddPost(post);
    tracker.AddPost(post, counts.norm_squared());
  }
  const PostSequence posts = future[resource];
  const int64_t cap =
      std::min(max_x, static_cast<int64_t>(posts.size()));
  std::vector<double> table;
  table.reserve(static_cast<size_t>(cap) + 1);
  table.push_back(tracker.Quality());  // x = 0
  for (int64_t x = 1; x <= cap; ++x) {
    const PostView post = posts[static_cast<size_t>(x - 1)];
    counts.AddPost(post);
    tracker.AddPost(post, counts.norm_squared());
    table.push_back(tracker.Quality());
  }
  return table;
}

namespace {

constexpr double kNegInf = -1e300;

// Reward units of one task on resource l.
int64_t Cost(const CostModel* costs, size_t l) {
  return costs == nullptr ? 1 : costs->cost(static_cast<ResourceId>(l));
}

// Bottom-up DP (Algorithm 6) over a choice table of `Cell`, which holds
// every resource's cap (and -1). q_prev[b] = Q(b, l-1); choice[l][b] =
// y_{b,l}. The row before resource 0 decides the constraint: without
// costs only Q(0) = 0 is reachable, so every plan spends exactly b and a
// budget beyond the supply stays at -infinity; with costs the row is 0
// everywhere, so a plan spends at most b.
template <typename Cell>
util::Result<std::vector<DpPlan>> Sweep(
    const PostStore& initial_posts,
    const std::vector<ResourceReference>& references, const PostStore& future,
    std::span<const int64_t> budgets, const CostModel* costs, int64_t b_max) {
  const size_t n = initial_posts.size();
  const size_t width = static_cast<size_t>(b_max) + 1;
  std::vector<double> q_prev(width, costs == nullptr ? kNegInf : 0.0);
  q_prev[0] = 0.0;
  std::vector<double> q_cur(width);
  std::vector<std::vector<Cell>> choice(n, std::vector<Cell>(width));

  for (size_t l = 0; l < n; ++l) {
    const int64_t unit = Cost(costs, l);
    const size_t stride = static_cast<size_t>(unit);
    // q_l(c_l + x), up to what the largest budget affords and the future
    // supply holds.
    const std::vector<double> ql = DpPlanner::QualityTable(
        initial_posts[l], references[l], future, static_cast<ResourceId>(l),
        b_max / unit);
    for (size_t b = 0; b < width; ++b) {
      double best = kNegInf;
      Cell best_x = -1;
      const size_t x_cap = std::min(b / stride, ql.size() - 1);
      for (size_t x = 0; x <= x_cap; ++x) {
        const double base = q_prev[b - x * stride];
        if (base == kNegInf) continue;
        const double value = base + ql[x];
        if (value > best) {
          best = value;
          best_x = static_cast<Cell>(x);
        }
      }
      q_cur[b] = best;
      choice[l][b] = best_x;
    }
    std::swap(q_prev, q_cur);
  }

  // choice[l][b] depends only on b, so one table serves every budget.
  std::vector<DpPlan> plans;
  plans.reserve(budgets.size());
  for (int64_t budget : budgets) {
    const double total = q_prev[static_cast<size_t>(budget)];
    if (total == kNegInf) {
      return util::Status::FailedPrecondition(
          "budget exceeds the total number of available future posts");
    }
    DpPlan& plan = plans.emplace_back();
    plan.optimal_total_quality = total;
    plan.allocation.assign(n, 0);
    int64_t b = budget;
    for (size_t l = n; l-- > 0;) {
      const int64_t x = choice[l][static_cast<size_t>(b)];
      assert(x >= 0);
      plan.allocation[l] = x;
      b -= x * Cost(costs, l);
    }
    assert(costs == nullptr ? b == 0 : b >= 0);
  }
  return plans;
}

}  // namespace

util::Result<std::vector<DpPlan>> DpPlanner::PlanSweep(
    const PostStore& initial_posts,
    const std::vector<ResourceReference>& references, const PostStore& future,
    std::span<const int64_t> budgets, const CostModel* costs) {
  const size_t n = initial_posts.size();
  if (n == 0) {
    return util::Status::InvalidArgument("empty resource set");
  }
  if (references.size() != n || future.size() != n ||
      (costs != nullptr && costs->num_resources() != n)) {
    return util::Status::InvalidArgument(
        "initial posts, references, future posts and cost sizes must match");
  }
  int64_t b_max = 0;
  for (int64_t budget : budgets) {
    if (budget < 0) {
      return util::Status::InvalidArgument("budget must be non-negative");
    }
    b_max = std::max(b_max, budget);
  }
  // A choice cell holds x <= the resource's cap: what the largest budget
  // affords and its future supply holds. int16_t halves the table
  // whenever every cap fits, as at paper scale (3,436 posts at most).
  int64_t max_cap = 0;
  for (size_t l = 0; l < n; ++l) {
    const int64_t supply = static_cast<int64_t>(future[l].size());
    max_cap = std::max(max_cap, std::min(b_max / Cost(costs, l), supply));
  }
  INCENTAG_CHECK(max_cap <= std::numeric_limits<int32_t>::max());
  if (max_cap <= std::numeric_limits<int16_t>::max()) {
    return Sweep<int16_t>(initial_posts, references, future, budgets, costs,
                          b_max);
  }
  return Sweep<int32_t>(initial_posts, references, future, budgets, costs,
                        b_max);
}

util::Result<DpPlan> DpPlanner::Plan(
    const PostStore& initial_posts,
    const std::vector<ResourceReference>& references, const PostStore& future,
    int64_t budget, const CostModel* costs) {
  auto plans = PlanSweep(initial_posts, references, future,
                         std::span<const int64_t>(&budget, 1), costs);
  if (!plans.ok()) return plans.status();
  return std::move(plans.value().front());
}

}  // namespace core
}  // namespace incentag
