// Scheduler: the service layer's cross-campaign stepping policy.
//
// The paper's incentive campaigns are budgeted, long-lived processes; a
// production fleet runs hundreds of them against a fixed worker pool, and
// "which campaign steps next, and for how long" is policy, not plumbing
// (cf. the budget/deadline pacing concerns of arXiv:1709.00197 and
// arXiv:2104.08504). The Scheduler owns two decisions:
//
//   * dispatch order — the ready queue of runnable campaigns. The manager
//     enqueues a campaign when it becomes runnable (submitted, completion
//     arrived, quantum expired) and pairs each Enqueue with one generic
//     dispatch task on the worker pool; the dispatch pops whichever
//     campaign the policy ranks first. Round-robin pops the front of the
//     queue (FIFO, no scan); priority and EDF scan it for the smallest
//     rank key, oldest first on ties:
//       priority: -(priority + 0.5 x skips)   highest weight first
//       edf:      deadline - 0.05 s x skips   earliest deadline first
//     `skips` counts the pops that passed the entry over since it was
//     enqueued, so a waiting entry's rank improves (aging). A deadline is
//     absolute — Register time plus the relative deadline, on the
//     scheduler's own clock — and a campaign without one ranks behind
//     every dated one.
//   * quantum size — how many completions the popped campaign may apply
//     before it must yield its worker: the base quantum
//     (ManagerOptions::tasks_per_step), scaled under priority by the
//     campaign's weight capped at 64, so high-priority campaigns do
//     proportionally more work per trip through the queue.
//
// Starvation: aging alone cannot rescue a no-deadline campaign from an
// endless stream of dated ones, so the ranked policies also enforce a
// hard bound (starvation_limit): an entry skipped that many times pops
// next regardless of rank, the oldest such entry first. Each such pop
// counts in incentag_scheduler_starvation_pops_total.
//
// Thread model: every method is thread-safe; one mutex guards the ready
// queue and the registered classes. The linear pop scan is deliberate:
// the queue is bounded by the campaign count, and ranks move on every
// pop, so a heap's keys would be stale the moment they were inserted.
// Enqueue and PopNext are called under the manager's per-campaign
// scheduled-token protocol, so a campaign is in the ready queue at most
// once at a time. Deterministic mode uses the same ready queue, drained
// on the calling thread; a policy only reorders campaigns, never a
// campaign's own completions, so its byte-identity to
// AllocationEngine::Run holds.
#ifndef INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "src/service/completion_source.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace service {

enum class SchedulerPolicy {
  kRoundRobin,  // FIFO ready queue, uniform quanta (the PR 1 behavior)
  kPriority,    // weighted quanta + highest-priority-first dispatch
  kDeadline,    // earliest-deadline-first dispatch, uniform quanta
};

// Scheduling class of one campaign, registered when it joins the fleet
// (mirrors core::EngineOptions::priority / deadline_seconds, which travel
// with the campaign through the journal and recovery).
struct ScheduleParams {
  // Weight under the priority policy: quantum multiplier and dispatch
  // rank. Clamped to >= 1; 1 is the background/baseline class.
  int32_t priority = 1;
  // Relative completion deadline in seconds from registration (Submit, or
  // Recover — recovery restarts the clock); <= 0 means no deadline.
  double deadline_seconds = 0.0;
};

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
  // Hard starvation bound of the ranked policies: an entry passed over
  // this many times is popped next regardless of its rank. <= 0
  // disables the bound (aging still applies).
  int64_t starvation_limit = 64;
};

// What the ready queue holds. The manager's campaigns derive from it, so
// a worker pops the campaign itself, not an id it must look up again.
struct Runnable {
  explicit Runnable(CampaignId id_in) : id(id_in) {}
  const CampaignId id;
};

class Scheduler {
 public:
  // `base_quantum`: completions a campaign may apply per quantum before
  // yielding its worker (the manager passes tasks_per_step).
  Scheduler(const SchedulerOptions& options, int64_t base_quantum)
      : options_(options), base_quantum_(base_quantum) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Fleet membership. Register is called once when the campaign is
  // submitted or recovered; Unregister when it goes terminal (it also
  // drops any ready-queue entry).
  void Register(CampaignId id, const ScheduleParams& params);
  void Unregister(CampaignId id);

  // Marks `item` runnable; it must outlive its ready-queue entry. The
  // manager's scheduled-token protocol guarantees a campaign is enqueued
  // at most once until popped.
  void Enqueue(Runnable* item);

  // Pops the campaign the next free worker should step, per policy;
  // null when the queue is empty.
  Runnable* PopNext();

  // Completions the next step of `id` may apply before yielding.
  int64_t Quantum(CampaignId id);

 private:
  struct Entry {
    Runnable* item = nullptr;
    int64_t skips = 0;  // times PopNext passed this entry over
  };

  // Registered class of one campaign, normalized once.
  struct CampaignParams {
    int32_t priority = 1;
    // Absolute deadline in seconds on clock_; kNoDeadline when none.
    double deadline = kNoDeadline;
  };

  static constexpr double kNoDeadline = 1e18;

  // Params of `id`; the baseline class for unregistered campaigns.
  CampaignParams ParamsOfLocked(CampaignId id) const REQUIRES(mu_);
  // Rank key of a ready entry under a ranked policy; smaller pops first.
  double RankKeyLocked(const Entry& entry) const REQUIRES(mu_);
  // Index of the entry a ranked policy pops from a non-empty queue.
  size_t PickLocked() const REQUIRES(mu_);

  const SchedulerOptions options_;
  const int64_t base_quantum_;
  util::Mutex mu_;
  // Enqueue order: the front is the oldest entry.
  std::deque<Entry> ready_ GUARDED_BY(mu_);
  std::unordered_map<CampaignId, CampaignParams> params_ GUARDED_BY(mu_);
  // Base of the absolute-deadline clock, so comparisons never involve
  // "now".
  util::Stopwatch clock_;
};

// "rr" | "priority" | "edf" -> policy, for --scheduler flags.
util::Result<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name);
const char* SchedulerPolicyName(SchedulerPolicy policy);

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_
