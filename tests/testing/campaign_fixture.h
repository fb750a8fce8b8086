// The one campaign fixture of the service and HTTP tests: on top of
// campaign_spec.h, the engine reference and the gtest suite base that
// binds them to one dataset.
#ifndef INCENTAG_TESTS_TESTING_CAMPAIGN_FIXTURE_H_
#define INCENTAG_TESTS_TESTING_CAMPAIGN_FIXTURE_H_

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/post_stream.h"
#include "src/persist/journal.h"
#include "src/service/api/dto.h"
#include "src/service/campaign_manager.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/strategy_factory.h"
#include "tests/testing/campaign_spec.h"
#include "tests/testing/report_bytes.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace testing {

inline service::CampaignConfig MakeConfig(const sim::PreparedDataset& dataset,
                                          const Spec& spec) {
  auto config = BuildConfig(dataset, spec);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

// The reference report: the engine over a private copy of the future
// posts, building its own trajectory table, so a campaign that shares the
// dataset's store and table with a fleet is checked against one that
// shares nothing.
inline core::RunReport Uninterrupted(const sim::PreparedDataset& dataset,
                                     const Spec& spec) {
  std::shared_ptr<void> context;
  auto strategy = sim::MakeStrategyByName(spec.strategy, dataset.popularity,
                                          spec.seed, &context);
  EXPECT_NE(strategy, nullptr) << spec.strategy;
  const core::PostStore posts = dataset.future_posts;
  core::VectorPostStream stream(&posts);
  core::AllocationEngine engine(spec.options, &dataset.initial_posts,
                                &dataset.references);
  auto report = engine.Run(strategy.get(), &stream);
  EXPECT_TRUE(report.ok()) << spec.name << ": " << report.status().ToString();
  return report.ok() ? std::move(report).value() : core::RunReport{};
}

// A suite whose campaigns read the dataset of (kNumResources, kSeed), with
// an empty directory `dir_` of its own for each test.
template <int64_t kNumResources, uint64_t kSeed>
class CampaignTest : public ::testing::Test {
 protected:
  static const sim::PreparedDataset& dataset() {
    return Dataset(kNumResources, kSeed);
  }

  static service::CampaignConfig MakeConfig(const Spec& spec) {
    return testing::MakeConfig(dataset(), spec);
  }
  static service::CampaignConfig MakeConfig(int kind, int64_t budget,
                                            uint64_t seed) {
    return MakeConfig(KindSpec(kind, budget, seed));
  }

  // The Recover factory.
  static util::Result<service::CampaignConfig> Factory(
      const persist::SubmitRecord& record) {
    return BuildConfig(dataset(), SpecOf(record));
  }

  // The /v1 CampaignBuilder.
  static util::Result<service::CampaignConfig> Build(
      const service::api::SubmitCampaignRequest& request) {
    return BuildConfig(dataset(), SpecOf(request));
  }

  static core::RunReport Uninterrupted(const Spec& spec) {
    return testing::Uninterrupted(dataset(), spec);
  }
  static core::RunReport Uninterrupted(int kind, int64_t budget,
                                       uint64_t seed) {
    return Uninterrupted(KindSpec(kind, budget, seed));
  }

  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');  // TEST_P names
    dir_ = TempPath(name);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_CAMPAIGN_FIXTURE_H_
