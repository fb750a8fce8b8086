// DeadlineScheduler: earliest-deadline-first dispatch with
// starvation-proof aging.
//
// Each campaign's deadline is absolute — fixed at registration as
// (now + deadline_seconds) on the RankedScheduler's clock — so EDF
// ordering is a plain comparison of absolute deadlines; campaigns
// without a deadline rank behind every dated one. Quanta are uniform
// (base_quantum): EDF reorders *which* campaign a free worker steps, not
// how long it runs.
//
// Aging: every entry PopNext passes over moves its effective deadline
// deadline_aging_seconds_per_skip earlier; that breaks convoys among
// close deadlines but cannot rescue a no-deadline campaign from an
// endless stream of dated ones, so the hard starvation_limit bound
// (RankedScheduler, which also owns the ready queue) does. Skip counts
// reset when the campaign is popped.
#ifndef INCENTAG_SERVICE_SCHEDULER_DEADLINE_SCHEDULER_H_
#define INCENTAG_SERVICE_SCHEDULER_DEADLINE_SCHEDULER_H_

#include <cstdint>

#include "src/service/scheduler/ranked_scheduler.h"

namespace incentag {
namespace service {

class DeadlineScheduler : public RankedScheduler {
 public:
  explicit DeadlineScheduler(const SchedulerOptions& options)
      : RankedScheduler(options) {}

  const char* name() const override { return "edf"; }

 protected:
  double RankKey(const Entry& entry,
                 const CampaignParams& params) const override;
  int64_t QuantumFor(const CampaignParams& params) const override;
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_SCHEDULER_DEADLINE_SCHEDULER_H_
