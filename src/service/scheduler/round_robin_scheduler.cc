#include "src/service/scheduler/round_robin_scheduler.h"

#include <algorithm>

namespace incentag {
namespace service {

void RoundRobinScheduler::Register(CampaignId, const ScheduleParams&) {}

void RoundRobinScheduler::Unregister(CampaignId id) {
  util::MutexLock lock(&mu_);
  ready_.erase(std::remove(ready_.begin(), ready_.end(), id), ready_.end());
}

void RoundRobinScheduler::Enqueue(CampaignId id) {
  util::MutexLock lock(&mu_);
  ready_.push_back(id);
}

CampaignId RoundRobinScheduler::PopNext() {
  util::MutexLock lock(&mu_);
  if (ready_.empty()) return 0;
  const CampaignId popped = ready_.front();
  ready_.pop_front();
  return popped;
}

int64_t RoundRobinScheduler::Quantum(CampaignId) {
  return options_.base_quantum;
}

}  // namespace service
}  // namespace incentag
