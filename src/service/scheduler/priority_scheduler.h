// PriorityScheduler: weighted quanta + highest-priority-first dispatch.
//
// A campaign's priority (>= 1) buys it two things: PopNext ranks it above
// lower-priority ready campaigns, and its quantum is base_quantum *
// priority (capped at base_quantum * max_quantum_weight), so a
// priority-8 campaign applies ~8x the completions per trip through the
// ready queue. Ties and equal ranks dispatch FIFO.
//
// Starvation control: every entry PopNext passes over gains
// priority_aging_per_skip effective priority points, so a long-waiting
// background campaign eventually outranks fresh high-priority arrivals;
// independently, an entry skipped starvation_limit times is popped next
// unconditionally (RankedScheduler, which also owns the ready queue).
// Aging state resets when the campaign is popped.
#ifndef INCENTAG_SERVICE_SCHEDULER_PRIORITY_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_PRIORITY_SCHEDULER_H_

#include <cstdint>

#include "src/service/scheduler/ranked_scheduler.h"

namespace incentag {
namespace service {

class PriorityScheduler : public RankedScheduler {
 public:
  explicit PriorityScheduler(const SchedulerOptions& options)
      : RankedScheduler(options) {}

  const char* name() const override { return "priority"; }

 protected:
  double RankKey(const Entry& entry,
                 const CampaignParams& params) const override;
  int64_t QuantumFor(const CampaignParams& params) const override;
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_PRIORITY_SCHEDULER_H_
