// RankedScheduler: the shared ready-queue machinery of the ranked
// policies (priority, deadline).
//
// Both policies pop by a per-entry rank that changes as the entry waits
// (aging) and both enforce the same hard starvation bound, so the Entry
// bookkeeping, the pop scan and Unregister live here once; a concrete
// policy supplies only its rank key and quantum rule over the registered
// CampaignParams. One mutex guards the ready entries, the registered
// parameters and the FIFO tick. The linear pop scan is deliberate: ready
// size is bounded by the campaign count, and ranks move on every pop — a
// heap's keys would be stale the moment they were inserted.
#ifndef INCENTAG_SERVICE_SCHEDULER_RANKED_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_RANKED_SCHEDULER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/service/scheduler/scheduler.h"
#include "src/util/mutex.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace service {

class RankedScheduler : public Scheduler {
 public:
  explicit RankedScheduler(const SchedulerOptions& options)
      : Scheduler(options) {}

  // Stores the campaign's parameters (priority clamped to >= 1; a
  // positive relative deadline becomes absolute on the scheduler's own
  // clock).
  void Register(CampaignId id, const ScheduleParams& params) final;
  void Enqueue(CampaignId id) final;
  // Pops the entry with the smallest rank key, but among entries past
  // starvation_limit the oldest wins regardless of rank. Every
  // passed-over entry gains a skip, which the policies turn into aging
  // via their rank keys.
  CampaignId PopNext() final;
  // Drops the campaign's ready entries and parameters.
  void Unregister(CampaignId id) final;
  int64_t Quantum(CampaignId id) final;

 protected:
  struct Entry {
    CampaignId id = 0;
    uint64_t tick = 0;  // FIFO tie-break: lower = enqueued earlier
    int64_t skips = 0;  // times PopNext passed this entry over
  };

  // Registered scheduling class of one campaign, normalized once: both
  // ranked policies draw their keys from these two fields.
  struct CampaignParams {
    int32_t priority = 1;
    // Absolute deadline in seconds on the scheduler's clock;
    // kNoDeadline when the campaign has none.
    double deadline = kNoDeadline;
  };

  static constexpr double kNoDeadline = 1e18;

  // Rank key of a ready entry; SMALLER pops first. Called with the
  // scheduler's lock held.
  virtual double RankKey(const Entry& entry,
                         const CampaignParams& params) const = 0;
  // Completions one quantum of this campaign may apply.
  virtual int64_t QuantumFor(const CampaignParams& params) const = 0;

 private:
  // Params of `id`; defaults for unregistered campaigns (priority 1, no
  // deadline).
  CampaignParams ParamsOfLocked(CampaignId id) const REQUIRES(mu_);
  // PopNext's pick order: does `a` pop before `b`?
  bool PopsBeforeLocked(const Entry& a, const Entry& b) const
      REQUIRES(mu_);

  util::Mutex mu_;
  std::vector<Entry> ready_ GUARDED_BY(mu_);
  std::unordered_map<CampaignId, CampaignParams> params_ GUARDED_BY(mu_);
  uint64_t next_tick_ GUARDED_BY(mu_) = 0;
  // Base of the absolute-deadline clock, so comparisons never involve
  // "now".
  util::Stopwatch clock_;
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_RANKED_SCHEDULER_H_
