// End-to-end tests for the /v1 ingestion edge (ISSUE 8): a campaign
// driven entirely over HTTP — submit, pull assignments, POST completion
// batches — killed mid-batch and recovered must finish with a report
// byte-identical to the uninterrupted in-process run, with every
// re-POSTed completion classified as a duplicate (no double-apply).
// Plus the listing pagination/filter goldens and the edge rejections
// (malformed body, oversized body, unknown campaign) over a real socket.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/allocation.h"
#include "src/core/post_stream.h"
#include "src/http/campaign_routes.h"
#include "src/http/client.h"
#include "src/http/server.h"
#include "src/service/api/dto.h"
#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/file_io.h"
#include "src/util/json.h"
#include "tests/testing/test_util.h"

namespace incentag {
namespace http {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using util::json::Value;

class IngestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::CorpusConfig config;
    config.num_resources = 50;
    config.seed = 20260808;
    auto corpus = sim::Corpus::Generate(config);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    corpus_ = new sim::Corpus(std::move(corpus).value());
    auto prep = sim::PrepareFromCorpus(*corpus_, sim::PrepConfig{});
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    dataset_ = new sim::PreparedDataset(std::move(prep).value());
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete corpus_;
    dataset_ = nullptr;
    corpus_ = nullptr;
  }

  void SetUp() override {
    dir_ = incentag::testing::TempPath(
        std::string("ingest_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    ASSERT_TRUE(util::CreateDirectories(dir_.string()).ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  static core::EngineOptions MakeOptions(int64_t budget) {
    core::EngineOptions options;
    options.budget = budget;
    options.omega = 5;
    options.checkpoints = {budget / 4, budget / 2, budget};
    return options;
  }

  // The CampaignBuilder the edge uses: attaches dataset/strategy/stream
  // to the decoded request — the same split CampaignFactory makes.
  static util::Result<service::CampaignConfig> Build(
      const service::api::SubmitCampaignRequest& request) {
    service::CampaignConfig config;
    config.name = request.name;
    config.options = MakeOptions(request.budget);
    config.options.omega = request.omega;
    config.options.batch_size = request.batch_size;
    config.initial_posts = &dataset_->initial_posts;
    config.references = &dataset_->references;
    config.seed = request.seed;
    config.strategy = sim::MakeStrategyByName(
        request.strategy, dataset_->popularity, request.seed,
        &config.context);
    if (config.strategy == nullptr) {
      return util::Status::InvalidArgument("unknown strategy " +
                                           request.strategy);
    }
    config.stream =
        std::make_unique<core::VectorPostStream>(dataset_->MakeStream());
    return config;
  }

  static util::Result<service::CampaignConfig> Factory(
      const persist::SubmitRecord& record) {
    service::api::SubmitCampaignRequest request;
    request.name = record.name;
    request.strategy = record.strategy_name;
    request.budget = record.options.budget;
    request.omega = record.options.omega;
    request.batch_size = record.options.batch_size;
    request.seed = record.seed;
    return Build(request);
  }

  // Uninterrupted in-process ground truth.
  static core::RunReport RunSequential(std::string_view strategy,
                                       int64_t budget, uint64_t seed) {
    std::shared_ptr<void> context;
    auto strat = sim::MakeStrategyByName(strategy, dataset_->popularity,
                                         seed, &context);
    core::AllocationEngine engine(MakeOptions(budget),
                                  &dataset_->initial_posts,
                                  &dataset_->references);
    core::VectorPostStream stream = dataset_->MakeStream();
    auto report = engine.Run(strat.get(), &stream);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }

  static void ExpectReportsEqual(const core::RunReport& want,
                                 const core::RunReport& got,
                                 const std::string& label) {
    EXPECT_EQ(want.strategy_name, got.strategy_name) << label;
    EXPECT_EQ(want.allocation, got.allocation) << label;
    EXPECT_EQ(want.budget_spent, got.budget_spent) << label;
    EXPECT_EQ(want.stopped_early, got.stopped_early) << label;
    ASSERT_EQ(want.checkpoints.size(), got.checkpoints.size()) << label;
    EXPECT_EQ(want.final_metrics.budget_used,
              got.final_metrics.budget_used)
        << label;
    EXPECT_EQ(want.final_metrics.avg_quality,
              got.final_metrics.avg_quality)
        << label;
    EXPECT_EQ(want.final_metrics.over_tagged,
              got.final_metrics.over_tagged)
        << label;
    EXPECT_EQ(want.final_metrics.wasted_posts,
              got.final_metrics.wasted_posts)
        << label;
    EXPECT_EQ(want.final_metrics.under_tagged,
              got.final_metrics.under_tagged)
        << label;
  }

  // One full serving stack: intake source, journaled manager, server
  // with the /v1 routes, connected client.
  struct Stack {
    std::unique_ptr<service::ExternalCompletionSource> source;
    std::unique_ptr<service::CampaignManager> manager;
    std::unique_ptr<Server> server;
    Client client;

    void Kill() {
      // Order matters: fail in-flight assignments, drop the manager's
      // campaigns (the "crash" — journal keeps the applied prefix),
      // then stop serving.
      source->Stop();
      manager->Shutdown();
      server->Stop();
      client.Disconnect();
    }
  };

  std::unique_ptr<Stack> StartStack(bool with_journal,
                                    size_t max_body_bytes = 0) {
    auto stack = std::make_unique<Stack>();
    stack->source = std::make_unique<service::ExternalCompletionSource>();
    service::ManagerOptions options;
    options.num_threads = 2;
    options.tasks_per_step = 8;
    options.completions = stack->source.get();
    if (with_journal) options.journal_dir = dir_.string();
    stack->manager =
        std::make_unique<service::CampaignManager>(options);
    ServerOptions server_options;
    server_options.num_threads = 4;
    if (max_body_bytes != 0) {
      server_options.limits.max_body_bytes = max_body_bytes;
    }
    stack->server = std::make_unique<Server>(server_options);
    CampaignRoutesOptions routes;
    routes.manager = stack->manager.get();
    routes.intake = stack->source.get();
    routes.builder = Build;
    RegisterCampaignRoutes(stack->server.get(), routes);
    EXPECT_TRUE(stack->server->Start().ok());
    EXPECT_TRUE(
        stack->client.Connect("127.0.0.1", stack->server->port()).ok());
    return stack;
  }

  static Value ParseBody(const ClientResponse& response) {
    auto parsed = util::json::Parse(response.body);
    EXPECT_TRUE(parsed.ok())
        << parsed.status().ToString() << " body: " << response.body;
    return parsed.ok() ? std::move(parsed).value() : Value::Null();
  }

  static std::string SubmitBody(std::string_view name,
                                std::string_view strategy, int64_t budget,
                                uint64_t seed) {
    Value body = Value::Object();
    body.Set("name", Value::Str(std::string(name)));
    body.Set("strategy", Value::Str(std::string(strategy)));
    body.Set("budget", Value::Int(budget));
    body.Set("seed", Value::Int(static_cast<int64_t>(seed)));
    return body.Dump();
  }

  static uint64_t SubmitOverHttp(Client* client, std::string_view name,
                                 std::string_view strategy, int64_t budget,
                                 uint64_t seed) {
    auto response = client->Post(
        "/v1/campaigns", SubmitBody(name, strategy, budget, seed));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 201) << response.value().body;
    Value body = ParseBody(response.value());
    const Value* id = body.Find("id");
    EXPECT_NE(id, nullptr);
    return id == nullptr ? 0 : static_cast<uint64_t>(id->int_value());
  }

  struct WireTask {
    uint64_t seq = 0;
    int64_t resource = 0;
  };

  static std::vector<WireTask> PullTasks(Client* client, uint64_t id,
                                         size_t max) {
    auto response = client->Get("/v1/campaigns/" + std::to_string(id) +
                                "/tasks?max=" + std::to_string(max));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200) << response.value().body;
    Value body = ParseBody(response.value());
    std::vector<WireTask> out;
    const Value* tasks = body.Find("tasks");
    if (tasks == nullptr) return out;
    for (const Value& task : tasks->items()) {
      WireTask wire;
      const Value* seq = task.Find("seq");
      const Value* resource = task.Find("resource");
      if (seq != nullptr) wire.seq = static_cast<uint64_t>(seq->int_value());
      if (resource != nullptr) wire.resource = resource->int_value();
      out.push_back(wire);
    }
    return out;
  }

  static std::string BatchBody(const std::vector<WireTask>& tasks) {
    Value completions = Value::Array();
    for (const WireTask& task : tasks) {
      Value one = Value::Object();
      one.Set("seq", Value::Int(static_cast<int64_t>(task.seq)));
      one.Set("resource", Value::Int(task.resource));
      completions.Append(std::move(one));
    }
    Value body = Value::Object();
    body.Set("completions", std::move(completions));
    return body.Dump();
  }

  struct WireIntake {
    int64_t delivered = 0;
    int64_t duplicates = 0;
    int64_t unknown = 0;
    int64_t invalid = 0;
  };

  static WireIntake PostBatch(Client* client, uint64_t id,
                              const std::vector<WireTask>& tasks) {
    auto response =
        client->Post("/v1/campaigns/" + std::to_string(id) + "/completions",
                     BatchBody(tasks));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200) << response.value().body;
    Value body = ParseBody(response.value());
    WireIntake intake;
    if (const Value* v = body.Find("delivered")) {
      intake.delivered = v->int_value();
    }
    if (const Value* v = body.Find("duplicates")) {
      intake.duplicates = v->int_value();
    }
    if (const Value* v = body.Find("unknown")) intake.unknown = v->int_value();
    if (const Value* v = body.Find("invalid")) intake.invalid = v->int_value();
    return intake;
  }

  static std::string StateOverHttp(Client* client, uint64_t id) {
    auto response =
        client->Get("/v1/campaigns/" + std::to_string(id));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200) << response.value().body;
    Value body = ParseBody(response.value());
    const Value* state = body.Find("state");
    return state == nullptr ? "" : state->string_value();
  }

  // Tagger loop over the wire: pull assignments, echo them back as
  // completions, until the campaign leaves kRunning (stop_after = 0) or
  // `stop_after` completions were delivered. Returns the last non-empty
  // batch posted, for re-POST idempotency checks.
  static std::vector<WireTask> DriveOverHttp(Client* client, uint64_t id,
                                             size_t stop_after,
                                             size_t* delivered_out) {
    std::vector<WireTask> last_batch;
    size_t delivered = 0;
    for (int spins = 0; spins < 20000; ++spins) {
      size_t pull = 32;
      if (stop_after != 0) {
        if (delivered >= stop_after) break;
        pull = std::min(pull, stop_after - delivered);
      }
      std::vector<WireTask> tasks = PullTasks(client, id, pull);
      if (tasks.empty()) {
        if (StateOverHttp(client, id) != "running") break;
        std::this_thread::sleep_for(milliseconds(1));
        continue;
      }
      WireIntake intake = PostBatch(client, id, tasks);
      EXPECT_EQ(intake.invalid, 0);
      EXPECT_EQ(intake.unknown, 0);
      delivered += static_cast<size_t>(intake.delivered);
      last_batch = std::move(tasks);
    }
    if (delivered_out != nullptr) *delivered_out = delivered;
    return last_batch;
  }

  static sim::Corpus* corpus_;
  static sim::PreparedDataset* dataset_;
  fs::path dir_;
};

sim::Corpus* IngestTest::corpus_ = nullptr;
sim::PreparedDataset* IngestTest::dataset_ = nullptr;

// The acceptance test: kill the server mid-batch, recover from the
// journal, re-POST the same batch — the re-POST must split into
// duplicates (journaled before the kill) and re-deliveries (re-parked
// by recovery) with nothing double-applied, and the finished campaign's
// report must be byte-identical to the uninterrupted run.
TEST_F(IngestTest, KillMidBatchRecoverAndRepostIsByteIdentical) {
  const int64_t budget = 240;
  const uint64_t seed = 77;
  const core::RunReport want = RunSequential("RR", budget, seed);

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
  ExpectReportsEqual(want, report.value().report, "recovered over http");
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
                                 sim::StrategyNameForKind(i), 40,
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
  Value body = ParseBody(page.value());
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
  body = ParseBody(past.value());
  EXPECT_EQ(body.Find("total")->int_value(), 5);
  EXPECT_EQ(body.Find("campaigns")->items().size(), 0u);

  // Case-insensitive substring search on the name.
  auto search = stack->client.Get("/v1/campaigns?search=alpha");
  ASSERT_TRUE(search.ok());
  body = ParseBody(search.value());
  EXPECT_EQ(body.Find("total")->int_value(), 2);

  // State filter composes with search.
  auto done = stack->client.Get("/v1/campaigns?state=done&search=prod");
  ASSERT_TRUE(done.ok());
  body = ParseBody(done.value());
  EXPECT_EQ(body.Find("total")->int_value(), 3);
  auto running = stack->client.Get("/v1/campaigns?state=running");
  ASSERT_TRUE(running.ok());
  body = ParseBody(running.value());
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
  Value body = ParseBody(malformed.value());
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
      "/v1/campaigns", SubmitBody("x", "NOPE", 40, 1));
  ASSERT_TRUE(bad_strategy.ok());
  EXPECT_EQ(bad_strategy.value().status, 400);

  // Unknown campaign -> 404 not_found for status and completions alike.
  auto missing = stack->client.Get("/v1/campaigns/777");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  body = ParseBody(missing.value());
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
