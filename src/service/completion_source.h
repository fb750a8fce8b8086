// CompletionSource: the crowd-platform boundary of the service layer.
//
// A CampaignManager draws assignment batches (paper Algorithm 1 step 5 /
// the Figure-2 "post tasks" arrow) and hands each task to a
// CompletionSource — the abstraction of the tagger crowd. The source
// completes tasks asynchronously by invoking the campaign's callback,
// possibly from other threads and possibly out of assignment order; the
// manager's per-campaign reorder buffer restores assignment order before
// the completion is applied, so results stay independent of tagger timing.
//
// Completion delivery is batch-shaped (ISSUE 5): real folksonomy
// workloads arrive in bursts per resource/community (cf.
// arXiv:2104.01028), so the callback takes a span of completed tasks —
// the receiving campaign pays one inbox lock per burst, not per task. A
// source that completes tasks one at a time simply delivers spans of
// length 1; nothing about ordering or timing changes.
//
// Implementations that ship:
//   * InlineCompletionSource (here): taggers finish instantly, inside
//     SubmitTasks, the whole batch as one span — the synchronous world
//     of Algorithm 1.
//   * sim::CrowdLoadGenerator (src/sim/load_generator.h): a pool of
//     simulated tagger threads with configurable per-task latency and
//     per-tagger completion buffers.
//   * ExternalCompletionSource (src/service/external_source.h): the
//     HTTP-edge crowd; clients pull tasks and POST completions back.
//
// Crash recovery needs no source of its own: CampaignManager::Recover
// replays journaled completions straight through the runtime.
#ifndef INCENTAG_SERVICE_COMPLETION_SOURCE_H_
#define INCENTAG_SERVICE_COMPLETION_SOURCE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/types.h"

namespace incentag {
namespace service {

// Identifies a campaign within one CampaignManager.
using CampaignId = uint64_t;

// One assigned post task in flight between assignment and completion.
struct TaskHandle {
  CampaignId campaign = 0;
  core::ResourceId resource = core::kInvalidResource;
  // Per-campaign assignment sequence number; the manager applies
  // completions in seq order regardless of arrival order.
  uint64_t seq = 0;
};

class CompletionSource {
 public:
  virtual ~CompletionSource() = default;

  // Invoked by the source with one or more finished tasks — every task
  // exactly once across all invocations, in any grouping, from any
  // thread. A single invocation must only carry tasks that were
  // submitted with this callback (callbacks are per-campaign; the span
  // lands in one campaign's inbox). The span is only valid for the
  // duration of the call. Must be cheap and non-blocking.
  using CompletionFn = std::function<void(std::span<const TaskHandle>)>;

  // Accepts a batch of assigned tasks. May block (backpressure), may
  // complete some or all tasks synchronously before returning. The
  // callback must not be invoked after the source is stopped/destroyed —
  // quiesce the source before destroying the CampaignManager it feeds.
  //
  // Returns false when the source could not accept the whole batch (it
  // was stopped/closed): some tasks will never complete, and the manager
  // finalizes the campaign as kFailed instead of leaving it kRunning
  // forever waiting on completions that cannot arrive.
  virtual bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                           const CompletionFn& done) = 0;
};

// Instant taggers: the whole batch completes synchronously inside
// SubmitTasks, on the submitting thread, as a single completion span.
// The default source of CampaignManager.
class InlineCompletionSource : public CompletionSource {
 public:
  bool SubmitTasks(const std::vector<TaskHandle>& tasks,
                   const CompletionFn& done) override {
    if (!tasks.empty()) done(std::span<const TaskHandle>(tasks));
    return true;
  }
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_COMPLETION_SOURCE_H_
