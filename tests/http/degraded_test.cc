// Fleet degraded mode over the wire (ISSUE 10): while FleetHealth
// reports degraded, the write endpoints shed with 503 + Retry-After and
// every read endpoint keeps serving; exiting degraded mode restores the
// writes. Also pins the client's retry ladder against the shedding
// server: the capped Retry-After is honored, and a request that starts
// during the brownout succeeds once the fleet recovers.
#include <cerrno>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/strategy_rr.h"

#include "src/http/campaign_routes.h"
#include "src/http/client.h"
#include "src/http/server.h"
#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/service/fleet_health.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace incentag {
namespace http {
namespace {

class DegradedModeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service::FleetHealthOptions health_options;
    health_options.enter_after_failures = 2;
    health_options.exit_after_successes = 1;
    health_options.retry_after_seconds = 7;
    health_ = std::make_unique<service::FleetHealth>(health_options);

    source_ = std::make_unique<service::ExternalCompletionSource>();
    service::ManagerOptions manager_options;
    manager_options.num_threads = 1;
    manager_options.completions = source_.get();
    manager_options.health = health_.get();
    manager_ = std::make_unique<service::CampaignManager>(manager_options);

    ServerOptions server_options;
    server_options.num_threads = 2;
    server_ = std::make_unique<Server>(server_options);
    CampaignRoutesOptions routes;
    routes.manager = manager_.get();
    routes.intake = source_.get();
    // No builder: POST /v1/campaigns answers 501 while healthy, which
    // makes the healthy/degraded write responses trivially different.
    routes.health = health_.get();
    RegisterCampaignRoutes(server_.get(), routes);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    source_->Stop();
    manager_->Shutdown();
    server_->Stop();
  }

  void EnterDegraded() {
    const util::Status enospc = util::Status::IoError("no space", ENOSPC);
    health_->ReportStorageError(enospc);
    health_->ReportStorageError(enospc);
    ASSERT_TRUE(health_->degraded());
  }

  std::unique_ptr<Client> Connect(ClientRetryOptions retry = {}) {
    auto client = std::make_unique<Client>(retry);
    EXPECT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  static ClientRetryOptions NoRetry() {
    ClientRetryOptions retry;
    retry.retry_on_503 = false;
    return retry;
  }

  // A two-resource dataset for campaigns submitted in process; declared
  // before the manager, which must not outlive it.
  const core::PostStore posts_ =
      core::PostStore::FromPosts({{core::Post{{1}}}, {core::Post{{2}}}});
  const std::vector<core::ResourceReference> references_ =
      std::vector<core::ResourceReference>(2);
  std::unique_ptr<service::FleetHealth> health_;
  std::unique_ptr<service::ExternalCompletionSource> source_;
  std::unique_ptr<service::CampaignManager> manager_;
  std::unique_ptr<Server> server_;
};

TEST_F(DegradedModeTest, WritesShedWithRetryAfterWhileReadsServe) {
  auto client = Connect(NoRetry());

  // Healthy: writes reach their handlers (501: no builder wired).
  auto submit = client->Post("/v1/campaigns", "{}");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.value().status, 501);

  EnterDegraded();

  // Both write endpoints shed with 503 and the advertised Retry-After —
  // before any body parsing, so even a well-formed submit is refused.
  submit = client->Post("/v1/campaigns", "{}");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.value().status, 503);
  const std::string* retry_after = submit.value().Header("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "7");

  auto completions = client->Post(
      "/v1/campaigns/1/completions",
      R"({"completions":[{"seq":0,"resource":1}]})");
  ASSERT_TRUE(completions.ok());
  EXPECT_EQ(completions.value().status, 503);
  EXPECT_NE(completions.value().Header("retry-after"), nullptr);

  // Reads keep serving: listing, status-miss, health, and the scrape —
  // which must show the degraded gauge set and the sheds accounted.
  auto list = client->Get("/v1/campaigns");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().status, 200);
  auto missing = client->Get("/v1/campaigns/777");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  auto health = client->Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  auto metrics = client->Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("incentag_service_degraded_mode 1"),
            std::string::npos)
      << metrics.value().body;
  EXPECT_NE(metrics.value().body.find(
                "incentag_http_rejects_total{reason=\"degraded\"}"),
            std::string::npos);

  // Exit: one clean sync (hysteresis floor of 1) restores the writes.
  health_->ReportStorageOk();
  ASSERT_FALSE(health_->degraded());
  submit = client->Post("/v1/campaigns", "{}");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit.value().status, 501);
}

// A background campaign submitted while degraded parks, and the listing
// filter takes "parked" like any other state.
TEST_F(DegradedModeTest, ListingFiltersParkedCampaigns) {
  EnterDegraded();
  service::CampaignConfig config;
  config.name = "background";
  config.options.budget = 10;
  config.initial_posts = &posts_;
  config.references = &references_;
  config.strategy = std::make_unique<core::RoundRobinStrategy>();
  config.stream = std::make_unique<core::VectorPostStream>(&posts_);
  auto id = manager_->Submit(std::move(config));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager_->Status(id.value()).value().state !=
         service::CampaignState::kParked) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "never parked";
    std::this_thread::yield();
  }

  auto client = Connect(NoRetry());
  auto total = [&client](const std::string& target) -> int64_t {
    auto response = client->Get(target);
    EXPECT_TRUE(response.ok());
    if (!response.ok()) return -1;
    EXPECT_EQ(response.value().status, 200) << target;
    auto body = util::json::Parse(response.value().body);
    const util::json::Value* total =
        body.ok() ? body.value().Find("total") : nullptr;
    EXPECT_NE(total, nullptr) << response.value().body;
    return total != nullptr ? total->int_value() : -1;
  };
  EXPECT_EQ(total("/v1/campaigns?state=parked"), 1);
  EXPECT_EQ(total("/v1/campaigns?state=running"), 0);
  auto status = client->Get("/v1/campaigns/" + std::to_string(id.value()));
  ASSERT_TRUE(status.ok());
  auto body = util::json::Parse(status.value().body);
  ASSERT_TRUE(body.ok()) << status.value().body;
  const util::json::Value* state = body.value().Find("state");
  ASSERT_NE(state, nullptr) << status.value().body;
  EXPECT_EQ(state->string_value(), "parked");
}

// The client ladder rides out a brownout: Retry-After (7s) is clamped
// to max_retry_after_ms, the 503s are retried on the same connection,
// and the request that began while degraded completes once the fleet
// recovers mid-ladder.
TEST_F(DegradedModeTest, ClientRetriesThroughBrownoutHonoringRetryAfter) {
  EnterDegraded();

  ClientRetryOptions retry;
  retry.max_attempts = 20;
  retry.initial_backoff_ms = 5;
  retry.max_backoff_ms = 20;
  retry.max_retry_after_ms = 20;  // clamp the server's 7s advertisement
  auto client = Connect(retry);

  std::thread recover([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    health_->ReportStorageOk();
  });
  const auto start = std::chrono::steady_clock::now();
  auto submit = client->Post("/v1/campaigns", "{}");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  recover.join();

  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  EXPECT_EQ(submit.value().status, 501);  // through to the handler again
  // Honoring the raw 7s Retry-After even once would blow this bound by
  // two orders of magnitude.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace http
}  // namespace incentag
