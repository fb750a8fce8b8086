#include "src/service/scheduler/ranked_scheduler.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace incentag {
namespace service {

RankedScheduler::CampaignParams RankedScheduler::ParamsOfLocked(
    CampaignId id) const {
  auto it = params_.find(id);
  return it == params_.end() ? CampaignParams{} : it->second;
}

void RankedScheduler::Register(CampaignId id, const ScheduleParams& params) {
  CampaignParams normalized;
  normalized.priority = std::max<int32_t>(1, params.priority);
  normalized.deadline = params.deadline_seconds > 0.0
                            ? clock_.ElapsedSeconds() + params.deadline_seconds
                            : kNoDeadline;
  util::MutexLock lock(&mu_);
  params_[id] = normalized;
}

void RankedScheduler::Enqueue(CampaignId id) {
  util::MutexLock lock(&mu_);
  ready_.push_back(Entry{id, next_tick_++, 0});
}

bool RankedScheduler::PopsBeforeLocked(const Entry& a, const Entry& b) const {
  // Hard starvation bound dominates rank; among starving, oldest wins.
  const int64_t limit = options_.starvation_limit;
  const bool a_starving = limit > 0 && a.skips >= limit;
  const bool b_starving = limit > 0 && b.skips >= limit;
  if (a_starving != b_starving) return a_starving;
  if (a_starving) return a.tick < b.tick;
  const double a_key = RankKey(a, ParamsOfLocked(a.id));
  const double b_key = RankKey(b, ParamsOfLocked(b.id));
  if (a_key != b_key) return a_key < b_key;
  return a.tick < b.tick;
}

CampaignId RankedScheduler::PopNext() {
  const int64_t limit = options_.starvation_limit;
  util::MutexLock lock(&mu_);
  if (ready_.empty()) return 0;
  size_t best = 0;
  for (size_t i = 1; i < ready_.size(); ++i) {
    if (PopsBeforeLocked(ready_[i], ready_[best])) best = i;
  }
  if (limit > 0 && ready_[best].skips >= limit) {
    static obs::Counter* starvation_pops =
        obs::Registry::Default().GetCounter(
            "incentag_scheduler_starvation_pops_total",
            "Pops forced by the starvation backstop instead of rank");
    starvation_pops->Increment();
  }
  const CampaignId popped = ready_[best].id;
  ready_.erase(ready_.begin() + static_cast<ptrdiff_t>(best));
  for (Entry& e : ready_) ++e.skips;
  return popped;
}

void RankedScheduler::Unregister(CampaignId id) {
  util::MutexLock lock(&mu_);
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [id](const Entry& e) { return e.id == id; }),
               ready_.end());
  params_.erase(id);
}

int64_t RankedScheduler::Quantum(CampaignId id) {
  util::MutexLock lock(&mu_);
  return QuantumFor(ParamsOfLocked(id));
}

}  // namespace service
}  // namespace incentag
