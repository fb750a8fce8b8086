// End-to-end tests for the /v1 ingestion edge (ISSUE 8): a campaign
// driven entirely over HTTP — submit, pull assignments, POST completion
// batches — killed mid-batch and recovered must finish with a report
// byte-identical to the uninterrupted in-process run, with every
// re-POSTed completion classified as a duplicate (no double-apply).
// Plus the listing pagination/filter goldens and the edge rejections
// (malformed body, oversized body, unknown campaign) over a real socket.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/http/client.h"
#include "src/service/api/dto.h"
#include "src/service/campaign_manager.h"
#include "src/sim/strategy_factory.h"
#include "src/util/json.h"
#include "tests/testing/campaign_fixture.h"
#include "tests/testing/http_campaign.h"

namespace incentag {
namespace http {
namespace {

using std::chrono::milliseconds;
using util::json::Value;

using testing::DriveOverHttp;
using testing::PostBatch;
using testing::PullTasks;
using testing::StateOverHttp;
using testing::WireIntake;
using testing::WireTask;

class IngestTest : public testing::CampaignTest<50, 20260808> {
 protected:
  // What a submit body of only name, strategy, budget and seed asks for.
  static testing::Spec SubmitSpec(std::string name, std::string strategy,
                                  int64_t budget, uint64_t seed) {
    service::api::SubmitCampaignRequest request;
    request.name = std::move(name);
    request.strategy = std::move(strategy);
    request.budget = budget;
    request.seed = seed;
    return testing::SpecOf(request);
  }

  std::unique_ptr<testing::HttpStack> StartStack(bool with_journal,
                                                 size_t max_body_bytes = 0) {
    return testing::StartStack(Build, with_journal ? dir_.string() : "",
                               max_body_bytes);
  }

  static uint64_t SubmitOverHttp(Client* client, std::string name,
                                 std::string strategy, int64_t budget,
                                 uint64_t seed) {
    return testing::SubmitOverHttp(
        client, SubmitSpec(std::move(name), std::move(strategy), budget, seed));
  }
};

// The acceptance test: kill the server mid-batch, recover from the
// journal, re-POST the same batch — the re-POST must split into
// duplicates (journaled before the kill) and re-deliveries (re-parked
// by recovery) with nothing double-applied, and the finished campaign's
// report must be byte-identical to the uninterrupted run.
TEST_F(IngestTest, KillMidBatchRecoverAndRepostIsByteIdentical) {
  const int64_t budget = 240;
  const uint64_t seed = 77;
  const core::RunReport want =
      Uninterrupted(SubmitSpec("resumable", "RR", budget, seed));

  uint64_t id = 0;
  std::vector<WireTask> cut_batch;
  {
    auto stack = StartStack(/*with_journal=*/true);
    id = SubmitOverHttp(&stack->client, "resumable", "RR", budget, seed);
    ASSERT_NE(id, 0u);
    size_t delivered = 0;
    cut_batch = DriveOverHttp(&stack->client, id,
                              /*stop_after=*/static_cast<size_t>(budget) / 3,
                              &delivered);
    ASSERT_FALSE(cut_batch.empty());
    ASSERT_GT(delivered, 0u);
    stack->Kill();  // mid-campaign: the journal holds an applied prefix
  }

  auto stack = StartStack(/*with_journal=*/true);
  auto ids = stack->manager->Recover(dir_.string(), Factory);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  ASSERT_EQ(ids.value()[0], id);

  // At-least-once: the client never saw the kill coming, so it re-POSTs
  // the batch it last sent. Every member is either already journaled
  // (duplicate) or re-parked by recovery (delivered) — never unknown,
  // never invalid, never applied twice.
  WireIntake repost = PostBatch(&stack->client, id, cut_batch);
  EXPECT_EQ(repost.delivered + repost.duplicates,
            static_cast<int64_t>(cut_batch.size()));
  EXPECT_EQ(repost.unknown, 0);
  EXPECT_EQ(repost.invalid, 0);

  // A second identical re-POST is a pure no-op: everything duplicates.
  WireIntake again = PostBatch(&stack->client, id, cut_batch);
  EXPECT_EQ(again.delivered, 0);
  EXPECT_EQ(again.duplicates, static_cast<int64_t>(cut_batch.size()));

  DriveOverHttp(&stack->client, id, /*stop_after=*/0, nullptr);
  auto report = stack->manager->WaitFor(id, milliseconds(20000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().state, service::CampaignState::kDone);
  EXPECT_TRUE(testing::SameReport(want, report.value().report));
  EXPECT_EQ(StateOverHttp(&stack->client, id), "done");
  stack->Kill();
}

// Resource-mismatched and never-assigned completions classify as
// invalid/unknown without consuming the parked task, so the correct
// completion still lands afterwards.
TEST_F(IngestTest, MismatchAndUnknownDoNotConsumeParkedTasks) {
  auto stack = StartStack(/*with_journal=*/false);
  uint64_t id = SubmitOverHttp(&stack->client, "classify", "RR", 60, 3);
  ASSERT_NE(id, 0u);

  std::vector<WireTask> tasks;
  for (int spins = 0; tasks.empty() && spins < 5000; ++spins) {
    tasks = PullTasks(&stack->client, id, 4);
    if (tasks.empty()) std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_FALSE(tasks.empty());

  std::vector<WireTask> wrong = {
      {tasks[0].seq, tasks[0].resource + 1},  // assigned seq, wrong resource
      {tasks[0].seq + 100000, tasks[0].resource},  // never assigned
  };
  WireIntake intake = PostBatch(&stack->client, id, wrong);
  EXPECT_EQ(intake.delivered, 0);
  EXPECT_EQ(intake.invalid, 1);
  EXPECT_EQ(intake.unknown, 1);

  // The parked task survived the bad POSTs: the real completion lands.
  WireIntake good = PostBatch(&stack->client, id, {tasks[0]});
  EXPECT_EQ(good.delivered, 1);
  DriveOverHttp(&stack->client, id, /*stop_after=*/0, nullptr);
  stack->Kill();
}

// Listing pagination and filter goldens over the wire, plus the listing
// parameter rejections.
TEST_F(IngestTest, ListingPaginationAndFiltersOverHttp) {
  auto stack = StartStack(/*with_journal=*/false);
  const char* names[5] = {"Alpha-prod", "beta-prod", "ALPHA-dev",
                          "gamma-dev", "delta-prod"};
  std::vector<uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    uint64_t id = SubmitOverHttp(&stack->client, names[i],
                                 std::string(sim::StrategyNameForKind(i)), 40,
                                 static_cast<uint64_t>(10 + i));
    ASSERT_NE(id, 0u);
    ids.push_back(id);
    DriveOverHttp(&stack->client, id, /*stop_after=*/0, nullptr);
    EXPECT_EQ(StateOverHttp(&stack->client, id), "done");
  }

  // Page golden: window [2, 4) of 5, ids ascending.
  auto page = stack->client.Get("/v1/campaigns?offset=2&limit=2");
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page.value().status, 200);
  Value body = testing::ParseBody(page.value());
  EXPECT_EQ(body.Find("total")->int_value(), 5);
  EXPECT_EQ(body.Find("offset")->int_value(), 2);
  EXPECT_EQ(body.Find("limit")->int_value(), 2);
  const Value* campaigns = body.Find("campaigns");
  ASSERT_NE(campaigns, nullptr);
  ASSERT_EQ(campaigns->items().size(), 2u);
  EXPECT_EQ(campaigns->items()[0].Find("id")->int_value(),
            static_cast<int64_t>(ids[2]));
  EXPECT_EQ(campaigns->items()[1].Find("id")->int_value(),
            static_cast<int64_t>(ids[3]));

  // Past-the-end offset: empty page, same total.
  auto past = stack->client.Get("/v1/campaigns?offset=50&limit=2");
  ASSERT_TRUE(past.ok());
  body = testing::ParseBody(past.value());
  EXPECT_EQ(body.Find("total")->int_value(), 5);
  EXPECT_EQ(body.Find("campaigns")->items().size(), 0u);

  // Case-insensitive substring search on the name.
  auto search = stack->client.Get("/v1/campaigns?search=alpha");
  ASSERT_TRUE(search.ok());
  body = testing::ParseBody(search.value());
  EXPECT_EQ(body.Find("total")->int_value(), 2);

  // State filter composes with search.
  auto done = stack->client.Get("/v1/campaigns?state=done&search=prod");
  ASSERT_TRUE(done.ok());
  body = testing::ParseBody(done.value());
  EXPECT_EQ(body.Find("total")->int_value(), 3);
  auto running = stack->client.Get("/v1/campaigns?state=running");
  ASSERT_TRUE(running.ok());
  body = testing::ParseBody(running.value());
  EXPECT_EQ(body.Find("total")->int_value(), 0);

  // Parameter rejections.
  auto bad_state = stack->client.Get("/v1/campaigns?state=paused");
  ASSERT_TRUE(bad_state.ok());
  EXPECT_EQ(bad_state.value().status, 400);
  auto bad_limit = stack->client.Get("/v1/campaigns?limit=9999999");
  ASSERT_TRUE(bad_limit.ok());
  EXPECT_EQ(bad_limit.value().status, 400);
  auto bad_offset = stack->client.Get("/v1/campaigns?offset=x");
  ASSERT_TRUE(bad_offset.ok());
  EXPECT_EQ(bad_offset.value().status, 400);
  stack->Kill();
}

// Edge rejections: malformed JSON, schema violations, oversized bodies,
// unknown campaigns, wrong methods — each with the shared error shape.
TEST_F(IngestTest, EdgeRejections) {
  auto stack = StartStack(/*with_journal=*/false, /*max_body_bytes=*/2048);

  // Malformed JSON -> 400 invalid_argument with the error envelope.
  auto malformed = stack->client.Post("/v1/campaigns", "{not json");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.value().status, 400);
  Value body = testing::ParseBody(malformed.value());
  ASSERT_NE(body.Find("error"), nullptr);
  EXPECT_EQ(body.Find("error")->Find("code")->string_value(),
            "invalid_argument");

  // Schema violation -> 400.
  auto bad_schema =
      stack->client.Post("/v1/campaigns", R"({"name":"x","budget":5})");
  ASSERT_TRUE(bad_schema.ok());
  EXPECT_EQ(bad_schema.value().status, 400);

  // Unknown strategy -> the builder's error, mapped through the table.
  auto bad_strategy = stack->client.Post(
      "/v1/campaigns", testing::SubmitBody(SubmitSpec("x", "NOPE", 40, 1)));
  ASSERT_TRUE(bad_strategy.ok());
  EXPECT_EQ(bad_strategy.value().status, 400);

  // Unknown campaign -> 404 not_found for status and completions alike.
  auto missing = stack->client.Get("/v1/campaigns/777");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  body = testing::ParseBody(missing.value());
  EXPECT_EQ(body.Find("error")->Find("code")->string_value(), "not_found");
  auto missing_post = stack->client.Post(
      "/v1/campaigns/777/completions",
      R"({"completions":[{"seq":0,"resource":1}]})");
  ASSERT_TRUE(missing_post.ok());
  EXPECT_EQ(missing_post.value().status, 404);

  // Bad id -> 400, not a crash or a 404.
  auto bad_id = stack->client.Get("/v1/campaigns/zzz");
  ASSERT_TRUE(bad_id.ok());
  EXPECT_EQ(bad_id.value().status, 400);

  // Oversized body -> 413 from the reader, before any handler runs.
  std::string huge(4096, 'x');
  auto oversized = stack->client.Post("/v1/campaigns", huge);
  ASSERT_TRUE(oversized.ok());
  EXPECT_EQ(oversized.value().status, 413);

  // The server closed that connection; the client reconnects and the
  // edge still serves.
  auto health = stack->client.Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  // Wrong method on a known path -> 405; unknown path -> 404.
  auto wrong_method = stack->client.Request("DELETE", "/v1/campaigns");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);
  auto unknown_path = stack->client.Get("/v2/campaigns");
  ASSERT_TRUE(unknown_path.ok());
  EXPECT_EQ(unknown_path.value().status, 404);

  // The scrape endpoint serves Prometheus text with the edge series.
  auto metrics = stack->client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("incentag_http_requests_total"),
            std::string::npos);
  stack->Kill();
}

}  // namespace
}  // namespace http
}  // namespace incentag
