// The one report comparison of the test suite: two reports are equal when
// they serialize to the same bytes, doubles to the bit. On a mismatch the
// assertion names the first field that differs.
#ifndef INCENTAG_TESTS_TESTING_REPORT_BYTES_H_
#define INCENTAG_TESTS_TESTING_REPORT_BYTES_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/util/wire.h"

namespace incentag {
namespace testing {

// One serialized field: its name, its wire bytes and its printed value.
struct ReportField {
  std::string name;
  std::string bytes;
  std::string text;
};

using ReportFields = std::vector<ReportField>;

template <typename T>
void AddField(ReportFields* fields, std::string name,
              std::type_identity_t<T> value, void (*put)(std::string*, T)) {
  ReportField field{std::move(name), {}, {}};
  put(&field.bytes, value);
  std::ostringstream text;
  text.precision(17);
  if constexpr (std::is_integral_v<T>) {
    text << static_cast<int64_t>(value);
  } else {
    text << value;
  }
  field.text = text.str();
  fields->push_back(std::move(field));
}

// The field list of a report and of one metrics snapshot, in wire order.
// The bytes and the mismatch message both come from here.
inline void AddMetrics(ReportFields* fields, const std::string& where,
                       const core::AllocationMetrics& m) {
  AddField(fields, where + "budget_used", m.budget_used, util::wire::PutI64);
  AddField(fields, where + "avg_quality", m.avg_quality, util::wire::PutDouble);
  AddField(fields, where + "over_tagged", m.over_tagged, util::wire::PutI64);
  AddField(fields, where + "wasted_posts", m.wasted_posts, util::wire::PutI64);
  AddField(fields, where + "under_tagged", m.under_tagged, util::wire::PutI64);
}

inline ReportFields Fields(const core::RunReport& report) {
  ReportFields fields;
  AddField(&fields, "strategy", std::string_view(report.strategy_name),
           util::wire::PutString);
  AddField(&fields, "allocation size", report.allocation.size(),
           util::wire::PutU64);
  for (size_t i = 0; i < report.allocation.size(); ++i) {
    AddField(&fields, "allocation[" + std::to_string(i) + "]",
             report.allocation[i], util::wire::PutI64);
  }
  AddField(&fields, "checkpoints", report.checkpoints.size(),
           util::wire::PutU64);
  for (size_t i = 0; i < report.checkpoints.size(); ++i) {
    AddMetrics(&fields, "checkpoint " + std::to_string(i) + " ",
               report.checkpoints[i]);
  }
  AddMetrics(&fields, "final ", report.final_metrics);
  AddField(&fields, "budget_spent", report.budget_spent, util::wire::PutI64);
  AddField(&fields, "stopped_early", report.stopped_early ? 1 : 0,
           util::wire::PutU8);
  return fields;
}

inline ReportFields Fields(const core::AllocationMetrics& metrics) {
  ReportFields fields;
  AddMetrics(&fields, "", metrics);
  return fields;
}

inline std::string ReportBytes(const core::RunReport& report) {
  std::string out;
  for (const ReportField& field : Fields(report)) out += field.bytes;
  return out;
}

// Equal when every field has the same bytes; otherwise names the first
// field that differs. A length field precedes its entries, so two lists
// of different lengths differ there first.
inline ::testing::AssertionResult SameFields(const ReportFields& want,
                                             const ReportFields& got) {
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i].bytes == got[i].bytes) continue;
    return ::testing::AssertionFailure()
           << "first difference at " << want[i].name << ": want "
           << want[i].text << ", got " << got[i].text;
  }
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "field count: want " << want.size() << ", got " << got.size();
  }
  return ::testing::AssertionSuccess();
}

// EXPECT_TRUE(SameReport(want, got)) << label;
inline ::testing::AssertionResult SameReport(const core::RunReport& want,
                                             const core::RunReport& got) {
  return SameFields(Fields(want), Fields(got));
}

// The same comparison for one metrics snapshot.
inline ::testing::AssertionResult SameMetrics(
    const core::AllocationMetrics& want, const core::AllocationMetrics& got) {
  return SameFields(Fields(want), Fields(got));
}

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_REPORT_BYTES_H_
