// Scheduler: pluggable cross-campaign stepping policy for the service
// layer.
//
// The paper's incentive campaigns are budgeted, long-lived processes; a
// production fleet runs hundreds of them against a fixed worker pool, and
// "which campaign steps next, and for how long" is policy, not plumbing
// (cf. the budget/deadline pacing concerns of arXiv:1709.00197 and
// arXiv:2104.08504). A Scheduler owns two decisions the CampaignManager
// used to hard-code:
//
//   * dispatch order — the ready queue of runnable campaigns. The manager
//     enqueues a campaign when it becomes runnable (submitted, completion
//     arrived, quantum expired) and pairs each Enqueue with one generic
//     dispatch task on the worker pool; the dispatch pops whichever
//     campaign the policy ranks first. Round-robin pops FIFO (exactly the
//     pre-scheduler pool order), priority pops the highest weight,
//     deadline pops earliest-deadline-first (EDF).
//   * quantum size — how many completions the popped campaign may apply
//     before it must yield its worker. Round-robin and EDF use the base
//     quantum (ManagerOptions::tasks_per_step); priority scales it by the
//     campaign's weight so high-priority campaigns do proportionally more
//     work per trip through the queue.
//
// Starvation: both ranked policies age entries — every time PopNext
// passes an entry over, its effective rank improves — and enforce a hard
// bound (starvation_limit): an entry skipped that many times is popped
// next regardless of rank, so a low-priority campaign under sustained
// high-priority load still finishes.
//
// Thread model: every method is thread-safe. Each policy keeps its
// ready queue under one mutex. Enqueue and PopNext are called under the
// manager's per-campaign scheduled-token protocol, so a campaign is in
// the ready queue at most once at a time.
// Deterministic mode uses the same ready queue, drained on the calling
// thread; a policy only reorders campaigns, never a campaign's own
// completions, so its byte-identity to AllocationEngine::Run holds.
#ifndef INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/service/completion_source.h"
#include "src/util/status.h"

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
  // Weight for PriorityScheduler: quantum multiplier and dispatch rank.
  // Clamped to >= 1; 1 is the background/baseline class.
  int32_t priority = 1;
  // Relative completion deadline in seconds from registration (Submit, or
  // Recover — recovery restarts the clock); <= 0 means no deadline.
  double deadline_seconds = 0.0;
};

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;
  // Completions a campaign may apply per quantum before yielding its
  // worker; the CampaignManager sets this from tasks_per_step.
  int64_t base_quantum = 256;
  // PriorityScheduler: effective quantum = base_quantum * priority,
  // capped at base_quantum * max_quantum_weight so one campaign cannot
  // monopolize a worker for an unbounded stretch.
  int64_t max_quantum_weight = 64;
  // Aging, per skipped pop: a passed-over entry gains this many priority
  // points (PriorityScheduler) / moves its effective deadline this many
  // seconds earlier (DeadlineScheduler).
  double priority_aging_per_skip = 0.5;
  double deadline_aging_seconds_per_skip = 0.05;
  // Hard starvation bound: an entry passed over this many times is popped
  // next regardless of its rank. <= 0 disables the bound (aging still
  // applies).
  int64_t starvation_limit = 64;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options) : options_(options) {}
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual const char* name() const = 0;

  // Fleet membership. Register is called once when the campaign is
  // submitted or recovered; Unregister when it goes terminal (it also
  // drops any ready-queue entry).
  virtual void Register(CampaignId id, const ScheduleParams& params) = 0;
  virtual void Unregister(CampaignId id) = 0;

  // Marks `id` runnable. The manager's scheduled-token protocol
  // guarantees a campaign is enqueued at most once until popped.
  virtual void Enqueue(CampaignId id) = 0;

  // Pops the campaign the next free worker should step, per policy; 0
  // when the queue is empty.
  virtual CampaignId PopNext() = 0;

  // Completions the next step of `id` may apply before yielding.
  virtual int64_t Quantum(CampaignId id) = 0;

  const SchedulerOptions& options() const { return options_; }

 protected:
  const SchedulerOptions options_;
};

// Builds the policy named by `options.policy`.
std::unique_ptr<Scheduler> MakeScheduler(const SchedulerOptions& options);

// "rr" | "priority" | "edf" -> policy, for --scheduler flags.
util::Result<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name);
const char* SchedulerPolicyName(SchedulerPolicy policy);

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_SCHEDULER_H_
