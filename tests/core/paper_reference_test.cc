// The engine against the paper-literal reference (tests/testing/
// paper_reference.h): on seeded small corpora, budgets and MA windows,
// AllocationEngine::Run must spend its budget on the reference's
// resources in the reference's order, and end at the reference's
// metrics (quality to 1e-12, counts exactly).
//
// One named exception, MaRunningSumTie. MaTracker keeps m(k, omega) as a
// running window sum (subtract the oldest adjacent similarity, add the
// newest), so two resources whose scores are exactly equal can differ by
// the sum's rounding residue, and MU then takes the one the residue puts
// lower instead of the smaller id. First seen on n24_seed11 at omega 3,
// step 110: resources 0 and 9 both score m = 0.98953493415459626 summed
// fresh, but the engine holds 9 at 0.98953493415459604 and picks it
// where the paper's rule picks 0. The test allows such a step only where both scores are exactly equal and
// the engine took the larger id, counts them (Case::ties pins the count,
// over MU and FP-MU and every omega), and has the reference follow the
// engine from there, so the rest of the run is still checked.
#include "tests/testing/paper_reference.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"

namespace incentag {
namespace core {
namespace {

using testing::PaperReference;
using testing::PaperStrategy;

// Forwards to a strategy and records every assignment: the engine's
// choice sequence.
class RecordingStrategy : public Strategy {
 public:
  explicit RecordingStrategy(std::unique_ptr<Strategy> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void Init(const StrategyContext& ctx) override { inner_->Init(ctx); }
  ResourceId Choose() override { return inner_->Choose(); }
  void OnAssigned(ResourceId chosen) override {
    choices_.push_back(chosen);
    inner_->OnAssigned(chosen);
  }
  void Update(ResourceId chosen) override { inner_->Update(chosen); }
  void OnExhausted(ResourceId i) override { inner_->OnExhausted(i); }

  const std::vector<ResourceId>& choices() const { return choices_; }

 private:
  std::unique_ptr<Strategy> inner_;
  std::vector<ResourceId> choices_;
};

std::unique_ptr<Strategy> MakeStrategy(PaperStrategy strategy) {
  switch (strategy) {
    case PaperStrategy::kRR:
      return std::make_unique<RoundRobinStrategy>();
    case PaperStrategy::kFP:
      return std::make_unique<FewestPostsStrategy>();
    case PaperStrategy::kMU:
      return std::make_unique<MostUnstableStrategy>();
    case PaperStrategy::kFPMU:
      return std::make_unique<HybridFpMuStrategy>();
  }
  return nullptr;
}

struct Case {
  int64_t num_resources;
  uint64_t seed;
  int64_t budget;
  int64_t year_posts_max;
  int ties;  // MaRunningSumTie steps
};

// The first `num_resources` stable resources of a generated corpus. Short
// years keep the reference's prefix recounts cheap; the shortest run out
// of future posts within the budget.
sim::PreparedDataset MakeDataset(const Case& c) {
  sim::CorpusConfig config;
  config.num_resources = 4 * c.num_resources;
  config.seed = c.seed;
  config.year_posts_max = c.year_posts_max;
  config.add_showcases = false;  // their long years would outlast a budget
  auto corpus = sim::Corpus::Generate(config);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  sim::PrepConfig prep;
  prep.seed = c.seed;
  prep.max_keep = c.num_resources;
  auto dataset = sim::PrepareFromCorpus(corpus.value(), prep);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return std::move(dataset).value();
}

class PaperReferenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(PaperReferenceTest, EngineFollowsThePaper) {
  const Case& c = GetParam();
  const sim::PreparedDataset dataset = MakeDataset(c);
  ASSERT_EQ(dataset.size(), static_cast<size_t>(c.num_resources));
  int ties = 0;
  for (int omega : {2, 3, 5}) {
    const PaperReference reference(dataset.initial_posts,
                                   dataset.future_posts, dataset.references,
                                   omega, /*under_tagged_threshold=*/10);
    for (PaperStrategy strategy :
         {PaperStrategy::kRR, PaperStrategy::kFP, PaperStrategy::kMU,
          PaperStrategy::kFPMU}) {
      RecordingStrategy recording(MakeStrategy(strategy));
      const std::string label = std::string(recording.name()) + ", omega " +
                                std::to_string(omega);
      EngineOptions options;
      options.budget = c.budget;
      options.omega = omega;
      AllocationEngine engine(options, &dataset.initial_posts,
                              &dataset.references);
      const VectorPostStream stream = dataset.MakeStream();
      auto report = engine.Run(&recording, &stream);
      ASSERT_TRUE(report.ok()) << label << ": "
                               << report.status().ToString();

      std::vector<int64_t> x(dataset.size(), 0);
      std::vector<ResourceId> spent;
      // The paper's m_i at the current allocation; NaN while undefined.
      auto ma = [&](ResourceId i) {
        const int64_t k =
            static_cast<int64_t>(dataset.initial_posts[i].size()) + x[i];
        return k >= omega ? reference.MaScore(i, k)
                          : std::numeric_limits<double>::quiet_NaN();
      };
      for (ResourceId got : recording.choices()) {
        const std::optional<ResourceId> want =
            reference.Choose(strategy, x, spent);
        ASSERT_TRUE(want.has_value()) << label << ", step " << spent.size();
        if (got != *want) {
          const bool mu = strategy == PaperStrategy::kMU ||
                          strategy == PaperStrategy::kFPMU;
          ASSERT_TRUE(mu && ma(got) == ma(*want) && got > *want)
              << label << ", step " << spent.size() << ": the engine chose "
              << got << " (m = " << ma(got) << "), the paper " << *want
              << " (m = " << ma(*want) << ")";
          ++ties;  // MaRunningSumTie
        }
        ++x[got];
        spent.push_back(got);
      }
      const bool stopped = !reference.Choose(strategy, x, spent).has_value();
      EXPECT_EQ(report.value().stopped_early, stopped) << label;
      EXPECT_EQ(report.value().allocation, x) << label;
      EXPECT_EQ(report.value().budget_spent,
                static_cast<int64_t>(spent.size()))
          << label;
      EXPECT_EQ(static_cast<int64_t>(spent.size()) == c.budget, !stopped)
          << label;
      const AllocationMetrics want = reference.Metrics(x, spent);
      const AllocationMetrics& got = report.value().final_metrics;
      EXPECT_EQ(got.budget_used, want.budget_used) << label;
      EXPECT_NEAR(got.avg_quality, want.avg_quality, 1e-12) << label;
      EXPECT_EQ(got.over_tagged, want.over_tagged) << label;
      EXPECT_EQ(got.wasted_posts, want.wasted_posts) << label;
      EXPECT_EQ(got.under_tagged, want.under_tagged) << label;
    }
  }
  EXPECT_EQ(ties, c.ties);
}

// n <= 60 and budgets <= 500. The 12 resources of the first case hold
// fewer future posts than its budget, so every strategy stops early.
INSTANTIATE_TEST_SUITE_P(
    SeededCorpora, PaperReferenceTest,
    ::testing::Values(Case{12, 3, 500, 45, 0}, Case{24, 11, 137, 300, 2},
                      Case{40, 5, 300, 300, 2}, Case{30, 17, 450, 200, 2},
                      Case{60, 7, 500, 300, 10}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = "n";
      name.append(std::to_string(info.param.num_resources))
          .append("_seed")
          .append(std::to_string(info.param.seed))
          .append("_budget")
          .append(std::to_string(info.param.budget));
      return name;
    });

}  // namespace
}  // namespace core
}  // namespace incentag
