// Driving campaigns over the /v1 edge: one serving stack (intake source,
// manager, server with the campaign routes, connected client), and a
// tagger loop over the wire that pulls assignments and POSTs them back.
#ifndef INCENTAG_TESTS_TESTING_HTTP_CAMPAIGN_H_
#define INCENTAG_TESTS_TESTING_HTTP_CAMPAIGN_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/http/campaign_routes.h"
#include "src/http/client.h"
#include "src/http/server.h"
#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/util/json.h"
#include "tests/testing/campaign_fixture.h"

namespace incentag {
namespace testing {

struct HttpStack {
  std::unique_ptr<service::ExternalCompletionSource> source;
  std::unique_ptr<service::CampaignManager> manager;
  std::unique_ptr<http::Server> server;
  http::Client client;

  // Order matters: fail in-flight assignments, drop the manager's
  // campaigns (the "crash": a journal keeps the applied prefix), then
  // stop serving.
  void Kill() {
    source->Stop();
    manager->Shutdown();
    server->Stop();
    client.Disconnect();
  }
};

// A stack whose manager (threaded, 2 workers, quantum 8) reads its
// completions from the intake, journaling into `journal_dir` unless empty.
inline std::unique_ptr<HttpStack> StartStack(http::CampaignBuilder builder,
                                             const std::string& journal_dir,
                                             size_t max_body_bytes = 0) {
  auto stack = std::make_unique<HttpStack>();
  stack->source = std::make_unique<service::ExternalCompletionSource>();
  service::ManagerOptions options;
  options.num_threads = 2;
  options.tasks_per_step = 8;
  options.completions = stack->source.get();
  options.journal_dir = journal_dir;
  stack->manager = std::make_unique<service::CampaignManager>(options);
  http::ServerOptions server_options;
  server_options.num_threads = 4;
  if (max_body_bytes != 0) {
    server_options.limits.max_body_bytes = max_body_bytes;
  }
  stack->server = std::make_unique<http::Server>(server_options);
  http::CampaignRoutesOptions routes;
  routes.manager = stack->manager.get();
  routes.intake = stack->source.get();
  routes.builder = std::move(builder);
  http::RegisterCampaignRoutes(stack->server.get(), routes);
  EXPECT_TRUE(stack->server->Start().ok());
  EXPECT_TRUE(stack->client.Connect("127.0.0.1", stack->server->port()).ok());
  return stack;
}

inline util::json::Value ParseBody(const http::ClientResponse& response) {
  auto parsed = util::json::Parse(response.body);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString()
                           << " body: " << response.body;
  return parsed.ok() ? std::move(parsed).value() : util::json::Value::Null();
}

// The submit body of `spec`: every option but the checkpoints, which the
// builder derives from the budget.
inline std::string SubmitBody(const Spec& spec) {
  using util::json::Value;
  const core::EngineOptions& o = spec.options;
  Value body = Value::Object();
  body.Set("name", Value::Str(spec.name));
  body.Set("strategy", Value::Str(spec.strategy));
  body.Set("budget", Value::Int(o.budget));
  body.Set("omega", Value::Int(o.omega));
  body.Set("under_tagged_threshold", Value::Int(o.under_tagged_threshold));
  body.Set("batch_size", Value::Int(o.batch_size));
  body.Set("priority", Value::Int(o.priority));
  body.Set("deadline_seconds", Value::Number(o.deadline_seconds));
  body.Set("seed", Value::Int(static_cast<int64_t>(spec.seed)));
  return body.Dump();
}

// The new campaign's id; 0 when the submit failed.
inline uint64_t SubmitOverHttp(http::Client* client, const Spec& spec) {
  auto response = client->Post("/v1/campaigns", SubmitBody(spec));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return 0;
  EXPECT_EQ(response.value().status, 201) << response.value().body;
  const util::json::Value body = ParseBody(response.value());
  const util::json::Value* id = body.Find("id");
  return id == nullptr ? 0 : static_cast<uint64_t>(id->int_value());
}

struct WireTask {
  uint64_t seq = 0;
  int64_t resource = 0;
};

inline std::vector<WireTask> PullTasks(http::Client* client, uint64_t id,
                                       size_t max) {
  auto response = client->Get("/v1/campaigns/" + std::to_string(id) +
                              "/tasks?max=" + std::to_string(max));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  std::vector<WireTask> out;
  if (!response.ok()) return out;
  EXPECT_EQ(response.value().status, 200) << response.value().body;
  const util::json::Value body = ParseBody(response.value());
  const util::json::Value* tasks = body.Find("tasks");
  if (tasks == nullptr) return out;
  for (const util::json::Value& task : tasks->items()) {
    WireTask wire;
    if (const util::json::Value* seq = task.Find("seq")) {
      wire.seq = static_cast<uint64_t>(seq->int_value());
    }
    if (const util::json::Value* resource = task.Find("resource")) {
      wire.resource = resource->int_value();
    }
    out.push_back(wire);
  }
  return out;
}

struct WireIntake {
  int64_t delivered = 0;
  int64_t duplicates = 0;
  int64_t unknown = 0;
  int64_t invalid = 0;
};

inline WireIntake PostBatch(http::Client* client, uint64_t id,
                            const std::vector<WireTask>& tasks) {
  using util::json::Value;
  Value completions = Value::Array();
  for (const WireTask& task : tasks) {
    Value one = Value::Object();
    one.Set("seq", Value::Int(static_cast<int64_t>(task.seq)));
    one.Set("resource", Value::Int(task.resource));
    completions.Append(std::move(one));
  }
  Value request = Value::Object();
  request.Set("completions", std::move(completions));
  auto response = client->Post(
      "/v1/campaigns/" + std::to_string(id) + "/completions", request.Dump());
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  WireIntake intake;
  if (!response.ok()) return intake;
  EXPECT_EQ(response.value().status, 200) << response.value().body;
  const Value body = ParseBody(response.value());
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

inline std::string StateOverHttp(http::Client* client, uint64_t id) {
  auto response = client->Get("/v1/campaigns/" + std::to_string(id));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return "";
  EXPECT_EQ(response.value().status, 200) << response.value().body;
  const util::json::Value body = ParseBody(response.value());
  const util::json::Value* state = body.Find("state");
  return state == nullptr ? "" : state->string_value();
}

// Tagger loop over the wire: pull assignments and POST them back as
// completions, until the campaign leaves "running" (stop_after = 0) or
// `stop_after` completions were delivered. With `repost`, every batch is
// POSTed a second time, which must deliver nothing: the intake classifies
// each member as a duplicate. Returns the last non-empty batch posted.
inline std::vector<WireTask> DriveOverHttp(http::Client* client, uint64_t id,
                                           size_t stop_after,
                                           size_t* delivered_out,
                                           bool repost = false) {
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
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const WireIntake intake = PostBatch(client, id, tasks);
    EXPECT_EQ(intake.invalid, 0);
    EXPECT_EQ(intake.unknown, 0);
    delivered += static_cast<size_t>(intake.delivered);
    if (repost) {
      const WireIntake again = PostBatch(client, id, tasks);
      EXPECT_EQ(again.delivered, 0) << "campaign " << id;
      EXPECT_EQ(again.duplicates, static_cast<int64_t>(tasks.size()))
          << "campaign " << id;
    }
    last_batch = std::move(tasks);
  }
  if (delivered_out != nullptr) *delivered_out = delivered;
  return last_batch;
}

}  // namespace testing
}  // namespace incentag

#endif  // INCENTAG_TESTS_TESTING_HTTP_CAMPAIGN_H_
