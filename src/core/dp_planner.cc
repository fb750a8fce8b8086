#include "src/core/dp_planner.h"

#include <algorithm>
#include <cassert>

#include "src/core/quality.h"
#include "src/core/rfd.h"

namespace incentag {
namespace core {

util::Result<DpPlan> DpPlanner::PlanWithCosts(
    const PostStore& initial_posts,
    const std::vector<ResourceReference>& references, const PostStore& future,
    int64_t budget, const CostModel& costs) {
  const size_t n = initial_posts.size();
  if (n == 0) {
    return util::Status::InvalidArgument("empty resource set");
  }
  if (references.size() != n || future.size() != n ||
      costs.num_resources() != n) {
    return util::Status::InvalidArgument(
        "initial posts, references, future posts and cost sizes must match");
  }
  if (budget < 0) {
    return util::Status::InvalidArgument("budget must be non-negative");
  }
  const size_t width = static_cast<size_t>(budget) + 1;

  // Quality tables capped at the per-resource affordable task count.
  std::vector<std::vector<double>> quality(n);
  for (size_t l = 0; l < n; ++l) {
    const int64_t affordable = budget / costs.cost(static_cast<ResourceId>(l));
    quality[l] = QualityTable(initial_posts[l], references[l], future,
                              static_cast<ResourceId>(l), affordable);
  }

  // Q(b, l): best total quality of resources 0..l with total cost <= b.
  // Unlike Plan(), <= makes every subproblem feasible (x = 0 is allowed).
  std::vector<double> q_prev(width, 0.0);
  std::vector<double> q_cur(width, 0.0);
  std::vector<std::vector<int32_t>> choice(
      n, std::vector<int32_t>(width, 0));

  for (size_t l = 0; l < n; ++l) {
    const std::vector<double>& ql = quality[l];
    const int64_t unit = costs.cost(static_cast<ResourceId>(l));
    for (size_t b = 0; b < width; ++b) {
      double best = -1.0;
      int32_t best_x = 0;
      const size_t x_cap =
          std::min<size_t>(static_cast<size_t>(b / unit), ql.size() - 1);
      for (size_t x = 0; x <= x_cap; ++x) {
        const double base =
            l == 0 ? 0.0 : q_prev[b - x * static_cast<size_t>(unit)];
        const double value = base + ql[x];
        if (value > best) {
          best = value;
          best_x = static_cast<int32_t>(x);
        }
      }
      q_cur[b] = best;
      choice[l][b] = best_x;
    }
    std::swap(q_prev, q_cur);
  }

  DpPlan plan;
  plan.optimal_total_quality = q_prev[width - 1];
  plan.allocation.assign(n, 0);
  int64_t b = budget;
  for (size_t l = n; l-- > 0;) {
    const int32_t x = choice[l][static_cast<size_t>(b)];
    plan.allocation[l] = x;
    b -= static_cast<int64_t>(x) * costs.cost(static_cast<ResourceId>(l));
  }
  assert(b >= 0);
  return plan;
}

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

util::Result<DpPlan> DpPlanner::Plan(
    const PostStore& initial_posts,
    const std::vector<ResourceReference>& references, const PostStore& future,
    int64_t budget) {
  const size_t n = initial_posts.size();
  if (n == 0) {
    return util::Status::InvalidArgument("empty resource set");
  }
  if (references.size() != n || future.size() != n) {
    return util::Status::InvalidArgument(
        "initial posts, references and future posts sizes must match");
  }
  if (budget < 0) {
    return util::Status::InvalidArgument("budget must be non-negative");
  }
  const int64_t b_max = budget;
  const size_t width = static_cast<size_t>(b_max) + 1;

  // Per-resource quality tables. q[l][x] is only defined for x up to that
  // resource's future supply; allocations beyond the supply are invalid.
  std::vector<std::vector<double>> quality(n);
  for (size_t l = 0; l < n; ++l) {
    quality[l] = QualityTable(initial_posts[l], references[l], future,
                              static_cast<ResourceId>(l), b_max);
  }

  // Bottom-up DP (Algorithm 6). Q_prev[b] = Q(b, l-1); choice[l][b] = y_{b,l}.
  // The paper requires sum x_i == B exactly; with per-resource caps a
  // subproblem can be infeasible, marked with -infinity.
  constexpr double kNegInf = -1e300;
  std::vector<double> q_prev(width, kNegInf);
  std::vector<double> q_cur(width, kNegInf);
  std::vector<std::vector<int32_t>> choice(
      n, std::vector<int32_t>(width, -1));

  // l = 0 boundary: Q(b, 1) = q_1(c_1 + b) when feasible.
  for (size_t b = 0; b < width; ++b) {
    if (b < quality[0].size()) {
      q_prev[b] = quality[0][b];
      choice[0][b] = static_cast<int32_t>(b);
    }
  }
  for (size_t l = 1; l < n; ++l) {
    const std::vector<double>& ql = quality[l];
    for (size_t b = 0; b < width; ++b) {
      double best = kNegInf;
      int32_t best_x = -1;
      const size_t x_cap = std::min(b, ql.size() - 1);
      for (size_t x = 0; x <= x_cap; ++x) {
        const double base = q_prev[b - x];
        if (base == kNegInf) continue;
        const double value = base + ql[x];
        if (value > best) {
          best = value;
          best_x = static_cast<int32_t>(x);
        }
      }
      q_cur[b] = best;
      choice[l][b] = best_x;
    }
    std::swap(q_prev, q_cur);
  }

  if (q_prev[static_cast<size_t>(b_max)] == kNegInf) {
    return util::Status::FailedPrecondition(
        "budget exceeds the total number of available future posts");
  }

  DpPlan plan;
  plan.optimal_total_quality = q_prev[static_cast<size_t>(b_max)];
  plan.allocation.assign(n, 0);
  int64_t b = b_max;
  for (size_t l = n; l-- > 0;) {
    const int32_t x = choice[l][static_cast<size_t>(b)];
    assert(x >= 0);
    plan.allocation[l] = x;
    b -= x;
  }
  assert(b == 0);
  return plan;
}

}  // namespace core
}  // namespace incentag
