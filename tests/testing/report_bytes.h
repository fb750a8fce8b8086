// A RunReport as bytes, for tests that require two reports to be equal
// byte for byte: equal strings mean equal reports, doubles to the bit.
#ifndef INCENTAG_TESTS_TESTING_REPORT_BYTES_H_
#define INCENTAG_TESTS_TESTING_REPORT_BYTES_H_

#include <string>

#include "src/core/allocation.h"
#include "src/util/wire.h"

namespace incentag {
namespace testing {

inline std::string ReportBytes(const core::RunReport& report) {
  std::string out;
  auto metrics = [&out](const core::AllocationMetrics& m) {
    util::wire::PutI64(&out, m.budget_used);
    util::wire::PutDouble(&out, m.avg_quality);
    util::wire::PutI64(&out, m.over_tagged);
    util::wire::PutI64(&out, m.wasted_posts);
    util::wire::PutI64(&out, m.under_tagged);
  };
  util::wire::PutString(&out, report.strategy_name);
  util::wire::PutU64(&out, report.allocation.size());
  for (int64_t a : report.allocation) util::wire::PutI64(&out, a);
  util::wire::PutU64(&out, report.checkpoints.size());
  for (const core::AllocationMetrics& m : report.checkpoints) metrics(m);
  metrics(report.final_metrics);
  util::wire::PutI64(&out, report.budget_spent);
  util::wire::PutU8(&out, report.stopped_early ? 1 : 0);
  return out;
}

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_REPORT_BYTES_H_
