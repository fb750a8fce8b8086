#include "src/obs/export.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace obs {
namespace {

// A small deterministic registry covering every sample kind, shared by
// the golden tests below.
void Populate(Registry* registry) {
  Counter* tasks = registry->GetCounter("incentag_core_tasks_applied_total",
                                        "Completed tasks applied");
  tasks->Add(1234);
  Counter* crit = registry->GetCounter("incentag_demo_pops_total",
                                       "Pops per class", "class=\"critical\"");
  crit->Add(7);
  Counter* back = registry->GetCounter("incentag_demo_pops_total",
                                       "Pops per class",
                                       "class=\"background\"");
  back->Add(3);
  Gauge* depth =
      registry->GetGauge("incentag_service_inbox_depth", "Undrained depth");
  depth->Set(5);
  Histogram* histogram = registry->GetHistogram(
      "incentag_persist_fsync_seconds", "Fsync latency",
      std::vector<double>{0.001, 0.01, 0.1});
  histogram->Observe(0.0005);  // <=0.001
  histogram->Observe(0.005);   // <=0.01
  histogram->Observe(0.005);   // <=0.01
  histogram->Observe(5.0);     // +Inf
}

TEST(PrometheusExportTest, GoldenOutput) {
  Registry registry;
  Populate(&registry);
  const std::string expected =
      "# HELP incentag_core_tasks_applied_total Completed tasks applied\n"
      "# TYPE incentag_core_tasks_applied_total counter\n"
      "incentag_core_tasks_applied_total 1234\n"
      "# HELP incentag_demo_pops_total Pops per class\n"
      "# TYPE incentag_demo_pops_total counter\n"
      "incentag_demo_pops_total{class=\"critical\"} 7\n"
      "incentag_demo_pops_total{class=\"background\"} 3\n"
      "# HELP incentag_service_inbox_depth Undrained depth\n"
      "# TYPE incentag_service_inbox_depth gauge\n"
      "incentag_service_inbox_depth 5\n"
      "# HELP incentag_persist_fsync_seconds Fsync latency\n"
      "# TYPE incentag_persist_fsync_seconds histogram\n"
      "incentag_persist_fsync_seconds_bucket{le=\"0.001\"} 1\n"
      "incentag_persist_fsync_seconds_bucket{le=\"0.01\"} 3\n"
      "incentag_persist_fsync_seconds_bucket{le=\"0.1\"} 3\n"
      "incentag_persist_fsync_seconds_bucket{le=\"+Inf\"} 4\n"
      "incentag_persist_fsync_seconds_sum 5.0105\n"
      "incentag_persist_fsync_seconds_count 4\n";
  EXPECT_EQ(registry.Snapshot().RenderPrometheus(), expected);
}

TEST(JsonExportTest, GoldenOutput) {
  Registry registry;
  Populate(&registry);
  const std::string json = registry.Snapshot().RenderJson();
  // Structure: top-level arrays, labeled variants kept distinct, sparse
  // buckets (zero-count 0.1 bucket omitted), quantiles present.
  EXPECT_NE(json.find("{\"counters\":[{\"name\":"
                      "\"incentag_core_tasks_applied_total\",\"value\":"
                      "1234}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"labels\":\"class=\\\"critical\\\"\",\"value\":7"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":[{\"name\":"
                      "\"incentag_service_inbox_depth\",\"value\":5}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\":4,\"sum\":5.0105"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"le\":0.001,\"count\":1}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":1}"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("{\"le\":0.1,"), std::string::npos) << json;  // sparse
}

TEST(JsonExportTest, EscapesControlAndQuoteCharacters) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back(
      CounterSample{"weird_total", "k=\"a\\b\nc\"", "h", 1});
  const std::string json = snapshot.RenderJson();
  EXPECT_NE(json.find("k=\\\"a\\\\b\\nc\\\""), std::string::npos) << json;
}

TEST(ExportTest, FindersLocateByNameAndLabels) {
  Registry registry;
  Populate(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_NE(snapshot.FindCounter("incentag_core_tasks_applied_total"),
            nullptr);
  EXPECT_EQ(snapshot.FindCounter("incentag_core_tasks_applied_total")->value,
            1234);
  EXPECT_EQ(snapshot.FindCounter("incentag_demo_pops_total"), nullptr);
  ASSERT_NE(
      snapshot.FindCounter("incentag_demo_pops_total", "class=\"critical\""),
      nullptr);
  ASSERT_NE(snapshot.FindGauge("incentag_service_inbox_depth"), nullptr);
  ASSERT_NE(snapshot.FindHistogram("incentag_persist_fsync_seconds"),
            nullptr);
  EXPECT_EQ(snapshot.FindHistogram("nope"), nullptr);
}

TEST(ExportTest, WriteSnapshotJsonRoundTrips) {
  Registry registry;
  Populate(&registry);
  const std::string path =
      incentag::testing::TempPath("obs_exporter_snapshot.json").string();
  ASSERT_TRUE(WriteSnapshotJson(registry.Snapshot(), path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buf[4096];
  size_t read;
  while ((read = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, read);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(contents, registry.Snapshot().RenderJson() + "\n");
}

TEST(ExportTest, WriteSnapshotJsonReportsOpenFailure) {
  EXPECT_FALSE(
      WriteSnapshotJson(MetricsSnapshot{}, "/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace obs
}  // namespace incentag
