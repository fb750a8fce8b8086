// CampaignManager::List: pagination windows, state/search filters,
// stable id order (ISSUE 8; the StatusAll wrapper is gone as of ISSUE 9).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/campaign_manager.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace service {
namespace {

class ListTest : public testing::CampaignTest<40, 20260808> {
 protected:
  // An RR campaign of budget 50.
  static CampaignConfig MakeConfig(const std::string& name) {
    testing::Spec spec{name, "RR", {}, 0};
    spec.options.budget = 50;
    return CampaignTest::MakeConfig(spec);
  }
};

// Deterministic mode: every campaign is terminal (kDone) when Submit
// returns, so listings are exact.
TEST_F(ListTest, PaginationGolden) {
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  std::vector<CampaignId> ids;
  for (int i = 0; i < 7; ++i) {
    auto id = manager.Submit(MakeConfig("alpha-" + std::to_string(i)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  ListQuery q;
  q.offset = 2;
  q.limit = 3;
  CampaignPage page = manager.List(q);
  EXPECT_EQ(page.total, 7u);
  EXPECT_EQ(page.offset, 2u);
  EXPECT_EQ(page.limit, 3u);
  ASSERT_EQ(page.statuses.size(), 3u);
  EXPECT_EQ(page.statuses[0].id, ids[2]);
  EXPECT_EQ(page.statuses[1].id, ids[3]);
  EXPECT_EQ(page.statuses[2].id, ids[4]);

  // Window past the end: empty page, total intact.
  q.offset = 100;
  page = manager.List(q);
  EXPECT_EQ(page.total, 7u);
  EXPECT_TRUE(page.statuses.empty());

  // limit 0 is the count probe.
  q.offset = 0;
  q.limit = 0;
  page = manager.List(q);
  EXPECT_EQ(page.total, 7u);
  EXPECT_TRUE(page.statuses.empty());

  // Ascending id order across the whole listing.
  q.limit = 100;
  page = manager.List(q);
  ASSERT_EQ(page.statuses.size(), 7u);
  for (size_t i = 1; i < page.statuses.size(); ++i) {
    EXPECT_LT(page.statuses[i - 1].id, page.statuses[i].id);
  }
}

TEST_F(ListTest, SearchFilterIsCaseInsensitiveSubstring) {
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  ASSERT_TRUE(manager.Submit(MakeConfig("News-Tagging")).ok());
  ASSERT_TRUE(manager.Submit(MakeConfig("photo archive")).ok());
  ASSERT_TRUE(manager.Submit(MakeConfig("news backlog")).ok());

  ListQuery q;
  q.search = "NEWS";
  CampaignPage page = manager.List(q);
  EXPECT_EQ(page.total, 2u);
  ASSERT_EQ(page.statuses.size(), 2u);
  EXPECT_EQ(page.statuses[0].name, "News-Tagging");
  EXPECT_EQ(page.statuses[1].name, "news backlog");

  q.search = "archive";
  page = manager.List(q);
  EXPECT_EQ(page.total, 1u);

  q.search = "no such campaign";
  page = manager.List(q);
  EXPECT_EQ(page.total, 0u);
  EXPECT_TRUE(page.statuses.empty());
}

TEST_F(ListTest, StateFilter) {
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.Submit(MakeConfig("done-" + std::to_string(i))).ok());
  }

  ListQuery q;
  q.state = CampaignState::kDone;
  EXPECT_EQ(manager.List(q).total, 3u);
  q.state = CampaignState::kRunning;
  EXPECT_EQ(manager.List(q).total, 0u);

  // Filters compose: state AND search.
  q.state = CampaignState::kDone;
  q.search = "done-1";
  CampaignPage page = manager.List(q);
  EXPECT_EQ(page.total, 1u);
  ASSERT_EQ(page.statuses.size(), 1u);
  EXPECT_EQ(page.statuses[0].name, "done-1");
}

TEST_F(ListTest, TotalCountsMatchesBeyondThePage) {
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(manager.Submit(MakeConfig("x-" + std::to_string(i))).ok());
  }
  ListQuery q;
  q.limit = 2;
  q.search = "x-";
  CampaignPage page = manager.List(q);
  EXPECT_EQ(page.statuses.size(), 2u);
  EXPECT_EQ(page.total, 5u);
}

TEST_F(ListTest, UnfilteredMaxLimitPageCoversWholeFleet) {
  ManagerOptions options;
  options.deterministic = true;
  CampaignManager manager(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager.Submit(MakeConfig("w-" + std::to_string(i))).ok());
  }
  ListQuery q;
  q.limit = ListQuery::kMaxLimit;
  CampaignPage page = manager.List(q);
  ASSERT_EQ(page.statuses.size(), 4u);
  EXPECT_EQ(page.total, 4u);
  for (size_t i = 0; i + 1 < page.statuses.size(); ++i) {
    EXPECT_LT(page.statuses[i].id, page.statuses[i + 1].id);
  }
}

}  // namespace
}  // namespace service
}  // namespace incentag
