// CampaignRuntime: the reusable per-campaign core of paper Algorithm 1.
//
// Historically AllocationEngine::Run owned the whole budget loop — states,
// incremental evaluation, batch assignment, completion application and
// checkpointing — as one synchronous function. The service layer
// (src/service/campaign_manager.h) needs those steps individually: a
// campaign draws an assignment batch, hands the tasks to an asynchronous
// completion source (crowd taggers), and applies completions as they
// arrive, possibly much later and interleaved with other campaigns.
//
// CampaignRuntime is that decomposition. The step protocol is:
//
//   CampaignRuntime rt(options, &initial_posts, &references);
//   rt.Begin(strategy, stream);             // trajectory table, Init, t=0
//   while (!rt.done()) {
//     rt.DrawBatch(&batch);                 // assignment phase
//     if (batch.empty()) break;             // strategy stopped early
//     for (ResourceId r : batch)
//       rt.ApplyCompletion(r);              // completion phase
//   }
//   RunReport report = rt.Finish();         // frees per-resource state
//
// Begin borrows the dataset's trajectory table (initial_state.h;
// CampaignManager keeps one per dataset, post store and omega), or builds
// a private one when the caller passes none. A resource's state after j
// applied posts is the table's row(i, j), the same in every campaign, so
// the allocation x_i = j is the runtime's only per-resource state (4
// bytes, plus one exhausted bit; x_i never passes the resource's future
// length, a uint32 PostStore offset). It is the campaign's cursor into
// the shared post store, which the runtime only reads: a completion moves
// x_i, and a resource is exhausted once x_i reaches its future length.
// It is also the strategy's view:
// StrategyContext::state(i) computes ResourceView(c_i + x_i,
// row(i, x_i).ma_score) on each call.
// Begin has the table replay every trajectory from January; a restore
// needs each resource only from its allocation on (InitialState::Attach).
// Finish widens the allocation into the report and frees the rest of the
// per-resource state, the evaluation and the table reference; only the
// report survives. Per-resource, a running campaign holds these 4 bytes
// and a bit, plus what its strategy keeps (strategy_*.h).
//
// Driving the protocol straight through (as AllocationEngine::Run now
// does, and as CampaignManager's deterministic mode does) reproduces the
// original synchronous engine exactly: same reports, same strategy call
// sequence. The runtime is single-threaded by design — the service layer
// guarantees at most one thread steps a campaign at a time.
#ifndef INCENTAG_CORE_CAMPAIGN_RUNTIME_H_
#define INCENTAG_CORE_CAMPAIGN_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/initial_state.h"
#include "src/core/post_stream.h"
#include "src/core/strategy.h"
#include "src/core/types.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace incentag {
namespace core {

namespace internal {
class Evaluation;
}  // namespace internal

// Privately a ViewSource: the strategy's context reads the views it
// computes.
class CampaignRuntime : private ViewSource {
 public:
  // Pointers must outlive the runtime and have equal size (same contract
  // as AllocationEngine).
  CampaignRuntime(EngineOptions options, const PostStore* initial_posts,
                  const std::vector<ResourceReference>* references);
  ~CampaignRuntime();

  // The strategy context points into member state; moving would dangle it.
  CampaignRuntime(const CampaignRuntime&) = delete;
  CampaignRuntime& operator=(const CampaignRuntime&) = delete;

  // Validates the configuration, attaches `initial`'s trajectory table
  // (a private one over the stream's store when `initial` is null) and
  // has it built from January, sums the t=0 evaluation from its January
  // rows, runs strategy->Init and records the t=0 checkpoint. `initial`
  // must have been built for this runtime's dataset pointers, `stream`'s
  // store and omega (else InvalidArgument). `strategy` must outlive the
  // runtime. The runtime reads `stream`'s store() here only; the store,
  // like the dataset pointers, is borrowed and must outlive the runtime.
  // Every campaign starts at each resource's first future post.
  util::Status Begin(Strategy* strategy, const VectorPostStream* stream,
                     std::shared_ptr<const InitialState> initial = nullptr);

  // Assignment phase: fills `batch` with up to options.batch_size
  // resource ids whose budget is now committed (strategy->OnAssigned has
  // run for each). An empty batch means the strategy stopped the campaign
  // early; done() becomes true. Errors indicate a misbehaving strategy.
  util::Status DrawBatch(std::vector<ResourceId>* batch);

  // Completion phase for one task previously returned by DrawBatch:
  // moves the resource's allocation, and so its view, and the evaluation
  // one row along its trajectory, and notifies the strategy. Tasks of a
  // batch may be applied at any later time but must be applied in
  // assignment order and exactly once each.
  void ApplyCompletion(ResourceId chosen) { ApplyCompletionBatch(&chosen, 1); }

  // Applies `count` completions in order — exactly equivalent to calling
  // ApplyCompletion on each, but the per-task branches that cannot
  // change mid-run (unit costs, no checkpoints left to record) are
  // hoisted out of the loop, so the service layer's batched step
  // pipeline pays them once per quantum instead of once per task.
  void ApplyCompletionBatch(const ResourceId* chosen, size_t count);

  // True once the budget is spent or the strategy stopped early; no
  // further DrawBatch calls are allowed.
  bool done() const {
    return stopped_early_ || spent_ >= options_.budget;
  }

  int64_t spent() const { return spent_; }
  int64_t tasks_completed() const { return tasks_completed_; }
  size_t num_resources() const override { return initial_posts_->size(); }
  const EngineOptions& options() const { return options_; }

  // Current evaluation snapshot (O(1); safe between any two steps).
  // CHECK-fails before Begin and after Finish, as do DrawBatch and
  // ApplyCompletionBatch.
  AllocationMetrics Metrics() const;
  size_t checkpoints_recorded() const { return checkpoints_.size(); }

  // Stops the clock, assembles the RunReport and frees every per-resource
  // structure. Call at most once, after which the runtime is spent.
  RunReport Finish();

  // ---- resumable state (campaign snapshots, journal format v2) ----
  //
  // SerializeResumableState captures everything the runtime needs to
  // continue mid-campaign — per-resource observable states, the
  // incremental evaluation, allocation, checkpoints, budget counters,
  // the stream cursors (the allocation again: format v1 keeps both) and
  // the strategy's opaque state —
  // with doubles stored bit-exactly, so a restored runtime produces a
  // RunReport byte-identical to one that replayed the whole journal.
  // The per-resource bytes are rebuilt from the trajectory table
  // (InitialState::SerializeAt: fewer than InitialState::kKeepEvery
  // replayed posts per resource). Valid between any two steps after a
  // successful Begin; before Begin or after Finish it returns
  // FailedPrecondition.
  util::Status SerializeResumableState(std::string* out) const;

  // Restores a freshly constructed runtime (same options and dataset
  // pointers as the serialized one) from a SerializeResumableState blob.
  // Called INSTEAD of Begin: attaches `strategy` and reads `stream`'s
  // store as Begin does, and hands the strategy its serialized sub-blob
  // through Strategy::RestoreState. `initial` is as for Begin. A
  // resource's state is a function of its allocation, so where the table
  // is built at a resource's allocation the blob's bytes (state, quality
  // tracker and quality) must equal its rebuild; where it is not, the
  // decoded state seeds it (InitialState::Attach) and the trajectory is
  // replayed from there only. Every format-v1 stream cursor in the blob
  // must equal its allocation and no allocation may pass the resource's
  // future posts (else Corruption).
  util::Status RestoreResumableState(
      std::string_view state, Strategy* strategy,
      const VectorPostStream* stream,
      std::shared_ptr<const InitialState> initial = nullptr);

 private:
  int64_t CostOf(ResourceId i) const;
  void RecordCheckpointsThrough(int64_t budget_used);
  // The checks Begin and RestoreResumableState share; on success
  // initial_ holds the trajectory table (`initial`, or a private build).
  util::Status AttachInitialState(const VectorPostStream& stream,
                                  std::shared_ptr<const InitialState> initial);
  // Resource i's view at its current allocation.
  ResourceView View(ResourceId i) const override {
    const int64_t j = allocation_[i];
    return ResourceView(initial_->initial_posts(i) + j,
                        initial_->row(i, j).ma_score);
  }
  // True once resource i's allocation has used every future post.
  bool Exhausted(ResourceId i) const {
    return allocation_[i] >= initial_->future_length(i);
  }

  EngineOptions options_;
  const PostStore* initial_posts_;
  const std::vector<ResourceReference>* references_;

  Strategy* strategy_ = nullptr;
  StrategyContext ctx_;
  std::shared_ptr<const InitialState> initial_;
  std::unique_ptr<internal::Evaluation> eval_;
  // Whether the strategy has been told OnExhausted for the resource.
  std::vector<bool> exhausted_;

  // x_i: the posts applied to each resource, its row in initial_.
  // Snapshots write each as an i64.
  std::vector<uint32_t> allocation_;
  std::vector<AllocationMetrics> checkpoints_;
  size_t next_checkpoint_ = 0;
  int64_t spent_ = 0;
  int64_t tasks_completed_ = 0;
  bool stopped_early_ = false;
  util::Stopwatch timer_;
};

}  // namespace core
}  // namespace incentag

#endif  // INCENTAG_CORE_CAMPAIGN_RUNTIME_H_
