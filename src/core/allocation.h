// AllocationEngine: the budget loop of paper Algorithm 1 plus the
// evaluation bookkeeping used throughout Section V.
//
// The engine tracks the observable per-resource states (each resource's
// row of the dataset's trajectory table after its initial posts and the
// tasks completed so far, initial_state.h) and, privately, the evaluation
// state derived from the dataset-preparation references:
//
//   * set tagging quality  q(R, c + x)            — Figure 6(a)/(e)/(f)
//   * over-tagged count    #{i : k_i >= k*_i}     — Figure 6(b)
//   * wasted post tasks    tasks given to already-over-tagged resources
//                                                  — Figure 6(c)
//   * under-tagged share   #{i : k_i <= threshold} — Figure 6(d)
//
// All four are maintained incrementally, so recording a metrics checkpoint
// is O(1) and the run's measured wall-clock (Figures 6(g)/(h)) reflects the
// strategy, not the evaluation.
#ifndef INCENTAG_CORE_ALLOCATION_H_
#define INCENTAG_CORE_ALLOCATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/post_stream.h"
#include "src/core/quality.h"
#include "src/core/resource_state.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/util/status.h"

namespace incentag {
namespace core {

// Ground truth for one resource, produced by dataset preparation
// (src/sim/dataset_prep.h): the practically-stable rfd phi_hat_i under the
// strict (omega_s, tau_s) parameters and the stable point k*_i.
struct ResourceReference {
  RfdVector stable_rfd;
  int64_t stable_point = 0;
};

// Largest accepted MA window. Every kept state of a trajectory table
// holds omega - 1 doubles, so the cap keeps one request
// from asking for gigabytes; the paper's Fig. 6(f) sweeps omega over
// 2-16.
inline constexpr int kMaxOmega = 1024;

// The one omega check (Definition 7 needs omega >= 2): InvalidArgument
// unless 2 <= omega <= kMaxOmega.
util::Status ValidateOmega(int64_t omega);

struct EngineOptions {
  // Total reward units B.
  int64_t budget = 0;
  // MA window omega for the strategy-visible states (paper default 5);
  // see ValidateOmega.
  int omega = 5;
  // A resource with <= this many posts counts as under-tagged (Section
  // V-B.3 uses 10).
  int64_t under_tagged_threshold = 10;
  // Budgets (sorted ascending) at which to record a metrics snapshot; a
  // snapshot at `budget` is always recorded.
  std::vector<int64_t> checkpoints;
  // Optional per-resource reward amounts (Section III-C extension). Null
  // means every task costs one unit. Must outlive the engine and cover
  // every resource. A resource whose cost exceeds the remaining budget is
  // reported to the strategy as exhausted (budgets only shrink, so it can
  // never become affordable again).
  const CostModel* costs = nullptr;
  // Number of post tasks assigned before any of them completes — the
  // Figure-2 crowdsourcing reality, where a batch of tasks is posted to
  // the platform at once and strategies decide on information that is
  // stale by up to batch_size-1 tasks. 1 reproduces Algorithm 1 exactly.
  int64_t batch_size = 1;
  // Scheduling class when the campaign runs under the service layer's
  // scheduler (src/service/scheduler/). The core engine itself
  // ignores both fields; they live here because they are deterministic
  // campaign inputs — journaled in the SubmitRecord (format v3) and
  // restored at recovery, like budget and batch_size.
  //
  // Weight under the priority policy: >= 1; higher = ranked first and
  // given proportionally larger quanta. Values < 1 are treated as 1.
  int32_t priority = 1;
  // Relative completion deadline in seconds from Submit (recovery
  // restarts the clock); <= 0 means none. The EDF policy's key and the
  // source of CampaignStatus::deadline_slack_seconds.
  double deadline_seconds = 0.0;
};

// A snapshot of the evaluation metrics after `budget_used` post tasks.
struct AllocationMetrics {
  int64_t budget_used = 0;
  // q(R, c + x): average tagging quality over all resources (Def. 10).
  double avg_quality = 0.0;
  // Resources whose post count passed their stable point.
  int64_t over_tagged = 0;
  // Post tasks spent on already-over-tagged resources so far.
  int64_t wasted_posts = 0;
  // Resources with <= under_tagged_threshold posts.
  int64_t under_tagged = 0;
};

struct RunReport {
  std::string strategy_name;
  // x: post tasks allocated per resource. Under the default unit-cost
  // model this sums to budget_spent; with a CostModel the sum of
  // allocation[i] * cost(i) equals budget_spent.
  std::vector<int64_t> allocation;
  // Snapshot per requested checkpoint (ascending budget_used), ending with
  // the final state.
  std::vector<AllocationMetrics> checkpoints;
  AllocationMetrics final_metrics;
  int64_t budget_spent = 0;
  // True if the run stopped before spending the whole budget (strategy had
  // no eligible resource, or every stream was exhausted).
  bool stopped_early = false;
  // Wall-clock of the allocation loop (strategy decisions + state updates).
  double elapsed_seconds = 0.0;
};

class AllocationEngine {
 public:
  // `initial_posts` are the pre-campaign per-resource sequences (the
  // "January" posts); `references` the ground truth per resource. Both
  // must outlive the engine and have equal size.
  AllocationEngine(EngineOptions options, const PostStore* initial_posts,
                   const std::vector<ResourceReference>* references);

  // Runs Algorithm 1 with `strategy` drawing posts from `future`'s store,
  // which must outlive the call. The store is only read, so one store may
  // serve any number of runs.
  util::Result<RunReport> Run(Strategy* strategy,
                              const VectorPostStream* future);

 private:
  EngineOptions options_;
  const PostStore* initial_posts_;
  const std::vector<ResourceReference>* references_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_ALLOCATION_H_
