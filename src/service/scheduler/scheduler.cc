#include "src/service/scheduler/scheduler.h"

#include <algorithm>
#include <limits>

#include "src/obs/metrics.h"

namespace incentag {
namespace service {
namespace {

// Priority policy: a campaign's quantum is base_quantum x priority,
// capped here so one campaign cannot hold a worker for an unbounded
// stretch.
constexpr int64_t kMaxQuantumWeight = 64;
// Aging per skipped pop: effective priority points (priority) and
// seconds of effective deadline (edf).
constexpr double kPriorityAgingPerSkip = 0.5;
constexpr double kDeadlineAgingSecondsPerSkip = 0.05;

}  // namespace

Scheduler::CampaignParams Scheduler::ParamsOfLocked(CampaignId id) const {
  auto it = params_.find(id);
  return it == params_.end() ? CampaignParams{} : it->second;
}

void Scheduler::Register(CampaignId id, const ScheduleParams& params) {
  CampaignParams normalized;
  normalized.priority = std::max<int32_t>(1, params.priority);
  normalized.deadline = params.deadline_seconds > 0.0
                            ? clock_.ElapsedSeconds() + params.deadline_seconds
                            : kNoDeadline;
  util::MutexLock lock(&mu_);
  params_[id] = normalized;
}

void Scheduler::Unregister(CampaignId id) {
  util::MutexLock lock(&mu_);
  std::erase_if(ready_, [id](const Entry& e) { return e.item->id == id; });
  params_.erase(id);
}

void Scheduler::Enqueue(Runnable* item) {
  util::MutexLock lock(&mu_);
  ready_.push_back(Entry{item, 0});
}

double Scheduler::RankKeyLocked(const Entry& entry) const {
  const CampaignParams params = ParamsOfLocked(entry.item->id);
  const double skips = static_cast<double>(entry.skips);
  switch (options_.policy) {
    case SchedulerPolicy::kPriority:
      return -(params.priority + kPriorityAgingPerSkip * skips);
    case SchedulerPolicy::kDeadline:
      return params.deadline - kDeadlineAgingSecondsPerSkip * skips;
    case SchedulerPolicy::kRoundRobin:
      break;
  }
  return 0.0;
}

size_t Scheduler::PickLocked() const {
  const int64_t limit = options_.starvation_limit;
  size_t best = 0;
  double best_key = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ready_.size(); ++i) {
    // The hard starvation bound dominates rank; the queue is in enqueue
    // order, so the first starving entry is the oldest.
    if (limit > 0 && ready_[i].skips >= limit) {
      static obs::Counter* starvation_pops =
          obs::Registry::Default().GetCounter(
              "incentag_scheduler_starvation_pops_total",
              "Pops forced by the starvation backstop instead of rank");
      starvation_pops->Increment();
      return i;
    }
    const double key = RankKeyLocked(ready_[i]);
    if (key < best_key) {  // strict: the oldest wins a tie
      best = i;
      best_key = key;
    }
  }
  return best;
}

Runnable* Scheduler::PopNext() {
  util::MutexLock lock(&mu_);
  if (ready_.empty()) return nullptr;
  size_t best = 0;
  if (options_.policy != SchedulerPolicy::kRoundRobin) {
    best = PickLocked();
    for (Entry& e : ready_) ++e.skips;
  }
  Runnable* popped = ready_[best].item;
  ready_.erase(ready_.begin() + static_cast<ptrdiff_t>(best));
  return popped;
}

int64_t Scheduler::Quantum(CampaignId id) {
  if (options_.policy != SchedulerPolicy::kPriority) return base_quantum_;
  util::MutexLock lock(&mu_);
  return base_quantum_ *
         std::min<int64_t>(kMaxQuantumWeight, ParamsOfLocked(id).priority);
}

util::Result<SchedulerPolicy> ParseSchedulerPolicy(const std::string& name) {
  if (name == "rr" || name == "round_robin") {
    return SchedulerPolicy::kRoundRobin;
  }
  if (name == "priority") return SchedulerPolicy::kPriority;
  if (name == "edf" || name == "deadline") return SchedulerPolicy::kDeadline;
  return util::Status::InvalidArgument(
      "unknown scheduler policy '" + name + "' (want rr|priority|edf)");
}

const char* SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return "rr";
    case SchedulerPolicy::kPriority:
      return "priority";
    case SchedulerPolicy::kDeadline:
      return "edf";
  }
  return "?";
}

}  // namespace service
}  // namespace incentag
