#include "src/core/allocation.h"

#include <algorithm>
#include <cassert>

#include "src/core/campaign_runtime.h"

namespace incentag {
namespace core {

util::Status ValidateOmega(int64_t omega) {
  if (omega < 2 || omega > kMaxOmega) {
    return util::Status::InvalidArgument(
        "omega must be in [2, " + std::to_string(kMaxOmega) + "], got " +
        std::to_string(omega));
  }
  return util::Status::OK();
}

AllocationEngine::AllocationEngine(
    EngineOptions options, const PostStore* initial_posts,
    const std::vector<ResourceReference>* references)
    : options_(std::move(options)),
      initial_posts_(initial_posts),
      references_(references) {
  assert(initial_posts_ != nullptr && references_ != nullptr);
  assert(initial_posts_->size() == references_->size());
  assert(std::is_sorted(options_.checkpoints.begin(),
                        options_.checkpoints.end()));
}

// The synchronous engine is the trivial driver of the step protocol: every
// batch's completions are applied immediately, in assignment order — the
// taggers of paper Algorithm 1 who finish instantly. The concurrent
// driver of the same protocol lives in src/service/campaign_manager.h.
util::Result<RunReport> AllocationEngine::Run(
    Strategy* strategy, const VectorPostStream* future) {
  CampaignRuntime runtime(options_, initial_posts_, references_);
  util::Status status = runtime.Begin(strategy, future);
  if (!status.ok()) return status;

  std::vector<ResourceId> batch;
  while (!runtime.done()) {
    status = runtime.DrawBatch(&batch);
    if (!status.ok()) return status;
    if (batch.empty()) break;
    for (ResourceId chosen : batch) runtime.ApplyCompletion(chosen);
  }
  return runtime.Finish();
}

}  // namespace core
}  // namespace incentag
