// RoundRobinScheduler: FIFO dispatch, uniform quanta — the policy the
// CampaignManager hard-coded before the scheduler subsystem existed.
// Every runnable campaign waits its turn in submission-of-work order and
// applies at most base_quantum completions per turn; priority and
// deadline parameters are accepted and ignored. The ready queue is one
// deque under one mutex.
#ifndef INCENTAG_SERVICE_SCHEDULER_ROUND_ROBIN_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_ROUND_ROBIN_SCHEDULER_H_

#include <deque>

#include "src/service/scheduler/scheduler.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace service {

class RoundRobinScheduler : public Scheduler {
 public:
  explicit RoundRobinScheduler(const SchedulerOptions& options)
      : Scheduler(options) {}

  const char* name() const override { return "rr"; }

  void Register(CampaignId id, const ScheduleParams& params) override;
  void Unregister(CampaignId id) override;
  void Enqueue(CampaignId id) override;
  CampaignId PopNext() override;
  int64_t Quantum(CampaignId id) override;

 private:
  util::Mutex mu_;
  std::deque<CampaignId> ready_ GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_ROUND_ROBIN_SCHEDULER_H_
