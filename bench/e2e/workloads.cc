#include "bench/e2e/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/http/campaign_routes.h"
#include "src/http/client.h"
#include "src/http/server.h"
#include "src/obs/metrics.h"
#include "src/persist/journal.h"
#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/util/json.h"
#include "src/util/random.h"

namespace incentag {
namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kPollPeriodMs = 10;
constexpr int kMaxErrors = 16;

double MillisSince(uint64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) / 1e6;
}

// ------------------------------------------------------------ makespan

// Polls List every 10 ms and notes when each campaign is first seen
// terminal; makespan runs from its Submit returning until then. Runs on
// its own thread: it is the measurement, not load.
class MakespanPoller {
 public:
  MakespanPoller(const service::CampaignManager* manager, size_t campaigns)
      : manager_(manager),
        submitted_ns_(campaigns),
        terminal_ns_(campaigns, 0) {}
  ~MakespanPoller() { Finish(); }

  MakespanPoller(const MakespanPoller&) = delete;
  MakespanPoller& operator=(const MakespanPoller&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  // Manager ids of a fresh manager run 1..N in submission order.
  void Submitted(service::CampaignId id) {
    if (id >= 1 && id <= submitted_ns_.size()) {
      submitted_ns_[id - 1].store(obs::NowNs(), std::memory_order_release);
    }
  }

  // Requests one last poll (everything is terminal after WaitAll) and
  // joins the thread.
  void Finish() {
    finish_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Finish().
  std::vector<double> Makespans() const {
    std::vector<double> out;
    for (size_t i = 0; i < terminal_ns_.size(); ++i) {
      const uint64_t submitted = submitted_ns_[i].load();
      if (submitted == 0 || terminal_ns_[i] == 0) continue;
      out.push_back(terminal_ns_[i] > submitted
                        ? static_cast<double>(terminal_ns_[i] - submitted) /
                              1e9
                        : 0.0);
    }
    return out;
  }
  const std::vector<double>& list_us() const { return list_us_; }

 private:
  void Loop() {
    service::ListQuery all;
    all.limit = service::ListQuery::kMaxLimit;
    size_t seen = 0;
    auto next = std::chrono::steady_clock::now();
    for (;;) {
      const bool last = finish_.load(std::memory_order_acquire);
      service::CampaignPage page;
      {
        Span span("list", "service");
        const uint64_t t0 = obs::NowNs();
        page = manager_->List(all);
        list_us_.push_back(MillisSince(t0) * 1e3);
      }
      const uint64_t now = obs::NowNs();
      for (const service::CampaignStatus& status : page.statuses) {
        if (status.state == service::CampaignState::kRunning) continue;
        if (status.id < 1 || status.id > terminal_ns_.size()) continue;
        uint64_t& slot = terminal_ns_[status.id - 1];
        if (slot == 0) {
          slot = now;
          ++seen;
        }
      }
      if (last || seen == terminal_ns_.size()) return;
      next += std::chrono::milliseconds(kPollPeriodMs);
      const auto now_tp = std::chrono::steady_clock::now();
      if (next < now_tp) next = now_tp;
      std::this_thread::sleep_until(next);
    }
  }

  const service::CampaignManager* manager_;
  std::vector<std::atomic<uint64_t>> submitted_ns_;
  std::vector<uint64_t> terminal_ns_;  // poller thread only until joined
  std::vector<double> list_us_;        // poller thread only until joined
  std::atomic<bool> finish_{false};
  std::thread thread_;
};

// ------------------------------------------------------------ taggers

void AppendCapped(std::vector<std::string>* errors, std::string error) {
  if (errors->size() < kMaxErrors) {
    errors->push_back(std::move(error));
  } else if (errors->size() == kMaxErrors) {
    errors->push_back("...");
  }
}

// Per load-thread tallies (the submitting thread and each connection),
// merged into the round's Tally after the join.
struct LoadStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> submit_ms;
  std::vector<double> pull_ms;
  std::vector<double> post_ms;
  std::vector<double> read_ms;
  double rtt_us = 0.0;
  int64_t requests = 0;
  int64_t pulls = 0;
  int64_t empty_pulls = 0;
  int64_t body_bytes = 0;
  std::vector<std::string> errors;

  void Fail(std::string error) {
    ++failed;
    AppendCapped(&errors, std::move(error));
  }
};

// Submits one campaign, timing the call; 0 (counted as failed) when the
// manager refuses it.
service::CampaignId SubmitTimed(service::CampaignManager* manager,
                                service::CampaignConfig config,
                                MakespanPoller* poller, LoadStats* stats) {
  Span span("submit", "service");
  const uint64_t t0 = obs::NowNs();
  util::Result<service::CampaignId> id = manager->Submit(std::move(config));
  stats->submit_ms.push_back(MillisSince(t0));
  ++stats->attempted;
  if (!id.ok()) {
    stats->Fail("Submit: " + id.status().ToString());
    return 0;
  }
  poller->Submitted(id.value());
  return id.value();
}

// One closed-loop connection: every request waits for its reply.
class Tagger {
 public:
  Tagger(http::Client* client, LoadStats* stats, uint64_t request_base,
         uint64_t deadline_ns)
      : client_(client),
        stats_(stats),
        next_request_(request_base),
        deadline_ns_(deadline_ns) {}

  // The reply body of a 2xx response; nullopt (counted as failed) on a
  // transport error or any other status.
  std::optional<std::string> Call(std::string_view method,
                                  const std::string& target,
                                  std::string_view body, const char* span,
                                  uint64_t request,
                                  std::vector<double>* latency_ms) {
    Span s(span, "http", request);
    const uint64_t t0 = obs::NowNs();
    util::Result<http::ClientResponse> reply =
        client_->Request(method, target, body);
    const double ms = MillisSince(t0);
    ++stats_->attempted;
    ++stats_->requests;
    stats_->rtt_us += ms * 1e3;
    if (latency_ms != nullptr) latency_ms->push_back(ms);
    stats_->body_bytes += static_cast<int64_t>(body.size());
    if (!reply.ok() || reply.value().status / 100 != 2) {
      stats_->Fail(std::string(method) + " " + target + ": " +
                   (reply.ok() ? "HTTP " + std::to_string(reply.value().status)
                               : reply.status().ToString()));
      return std::nullopt;
    }
    stats_->body_bytes += static_cast<int64_t>(reply.value().body.size());
    return std::move(reply.value().body);
  }

  enum class Step { kPosted, kIdle, kTerminal, kError };

  // One pull → post pair on campaign `id`. When the pull comes back empty
  // the campaign's status decides whether it is still running.
  Step PullPost(service::CampaignId id) {
    if (obs::NowNs() > deadline_ns_) {
      stats_->Fail("campaign " + std::to_string(id) +
                   " still running at the deadline");
      return Step::kError;
    }
    const std::string base = "/v1/campaigns/" + std::to_string(id);
    const uint64_t request = next_request_++;
    std::optional<std::string> pulled =
        Call("GET", base + "/tasks?max=" + std::to_string(kBatchSize), {},
             "pull", request, &stats_->pull_ms);
    if (!pulled) return Step::kError;
    ++stats_->pulls;
    body_.assign("{\"completions\":[");
    size_t tasks = 0;
    if (!AppendCompletions(*pulled, &tasks)) {
      stats_->Fail("unparsable task list for campaign " + std::to_string(id));
      return Step::kError;
    }
    if (tasks == 0) {
      ++stats_->empty_pulls;
      std::optional<std::string> status =
          Call("GET", base, {}, "status", request, nullptr);
      if (!status) return Step::kError;
      util::Result<util::json::Value> parsed = util::json::Parse(*status);
      if (!parsed.ok()) return Step::kError;
      const util::json::Value* state = parsed.value().Find("state");
      return state != nullptr && state->string_value() == "running"
                 ? Step::kIdle
                 : Step::kTerminal;
    }
    body_ += "]}";
    if (!Call("POST", base + "/completions", body_, "post", request,
              &stats_->post_ms)) {
      return Step::kError;
    }
    return Step::kPosted;
  }

 private:
  // Echoes every pulled {seq, resource} back as a completion.
  bool AppendCompletions(const std::string& pulled, size_t* tasks) {
    util::Result<util::json::Value> parsed = util::json::Parse(pulled);
    if (!parsed.ok()) return false;
    const util::json::Value* list = parsed.value().Find("tasks");
    if (list == nullptr) return false;
    char buf[64];
    for (const util::json::Value& task : list->items()) {
      const util::json::Value* seq = task.Find("seq");
      const util::json::Value* resource = task.Find("resource");
      if (seq == nullptr || resource == nullptr) return false;
      std::snprintf(buf, sizeof(buf), "%s{\"seq\":%lld,\"resource\":%lld}",
                    *tasks == 0 ? "" : ",",
                    static_cast<long long>(seq->int_value()),
                    static_cast<long long>(resource->int_value()));
      body_ += buf;
      ++*tasks;
    }
    return true;
  }

  http::Client* client_;
  LoadStats* stats_;
  uint64_t next_request_;
  const uint64_t deadline_ns_;
  std::string body_;
};

// A campaign the connection submits itself (http_ingest), with the slot
// its id goes to.
struct OwnedCampaign {
  size_t index = 0;
  service::CampaignConfig config;
};

// http_ingest: submits each of its campaigns and drives it to completion
// before the next, so a connection has at most one live campaign.
void SubmitAndDriveOneAtATime(Tagger* tagger,
                              service::CampaignManager* manager,
                              MakespanPoller* poller, LoadStats* stats,
                              std::vector<OwnedCampaign> mine,
                              std::vector<service::CampaignId>* ids) {
  for (OwnedCampaign& campaign : mine) {
    const service::CampaignId id =
        SubmitTimed(manager, std::move(campaign.config), poller, stats);
    if (id == 0) return;
    (*ids)[campaign.index] = id;
    for (;;) {
      const Tagger::Step step = tagger->PullPost(id);
      if (step == Tagger::Step::kError) return;
      if (step == Tagger::Step::kTerminal) break;
    }
  }
}

// http_mixed writers: rotate over every campaign they own.
void DriveRotating(Tagger* tagger, std::vector<service::CampaignId> ids) {
  while (!ids.empty()) {
    for (size_t k = 0; k < ids.size();) {
      const Tagger::Step step = tagger->PullPost(ids[k]);
      if (step == Tagger::Step::kError) return;
      if (step == Tagger::Step::kTerminal) {
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++k;
      }
    }
  }
}

// http_mixed dashboard: pages the listing and reads single campaigns
// until the writers are done, scraping /metrics every 50th read.
void DriveDashboard(Tagger* tagger, LoadStats* stats,
                    const std::vector<service::CampaignId>& ids,
                    const std::atomic<bool>* writers_done, uint64_t seed) {
  if (ids.empty()) return;
  util::Rng rng(seed);
  constexpr size_t kPage = 100;
  const size_t pages = (ids.size() + kPage - 1) / kPage;
  int64_t reads = 0;
  uint64_t request = uint64_t{1} << 62;
  while (!writers_done->load(std::memory_order_acquire)) {
    std::optional<std::string> reply;
    if (reads % 2 == 0) {
      const size_t offset = static_cast<size_t>(reads / 2) % pages * kPage;
      reply = tagger->Call("GET",
                           "/v1/campaigns?limit=100&offset=" +
                               std::to_string(offset),
                           {}, "list", request++, &stats->read_ms);
    } else {
      const service::CampaignId id = ids[rng.NextBounded(ids.size())];
      reply = tagger->Call("GET", "/v1/campaigns/" + std::to_string(id), {},
                           "status", request++, &stats->read_ms);
    }
    if (!reply) return;
    if (++reads % 50 == 0 &&
        !tagger->Call("GET", "/metrics", {}, "metrics", request++, nullptr)) {
      return;
    }
  }
}

void Merge(LoadStats* from, Tally* into) {
  into->attempted += from->attempted;
  into->failed += from->failed;
  into->submit_ms.insert(into->submit_ms.end(), from->submit_ms.begin(),
                         from->submit_ms.end());
  into->pull_ms.insert(into->pull_ms.end(), from->pull_ms.begin(),
                       from->pull_ms.end());
  into->post_ms.insert(into->post_ms.end(), from->post_ms.begin(),
                       from->post_ms.end());
  into->read_ms.insert(into->read_ms.end(), from->read_ms.begin(),
                       from->read_ms.end());
  into->client_rtt_us += from->rtt_us;
  into->client_requests += from->requests;
  into->pulls += from->pulls;
  into->empty_pulls += from->empty_pulls;
  into->http_body_bytes += from->body_bytes;
  for (std::string& e : from->errors) into->Fail(std::move(e));
}

// ------------------------------------------------------------ rounds

// Blocks until every campaign is terminal or the deadline passes, then
// WaitAll()s. Returns false (campaigns cancelled) on a timeout, so a
// broken tagger fails the round instead of hanging it.
bool WaitAllBounded(service::CampaignManager* manager,
                    const std::vector<service::CampaignId>& ids,
                    uint64_t deadline_ns) {
  for (service::CampaignId id : ids) {
    const uint64_t now = obs::NowNs();
    const int64_t left_ms =
        deadline_ns > now ? static_cast<int64_t>((deadline_ns - now) / 1000000)
                          : 0;
    if (!manager->WaitFor(id, std::chrono::milliseconds(left_ms)).ok()) {
      for (service::CampaignId other : ids) (void)manager->Cancel(other);
      manager->WaitAll();
      return false;
    }
  }
  manager->WaitAll();
  return true;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return bytes;
}

// Checks each campaign ended kDone with a report bit-exact to its
// reference; returns the reports by fleet index and adds the applied
// counts to the tally.
std::vector<core::RunReport> CheckReports(
    service::CampaignManager* manager, const References& refs,
    std::span<const CampaignSpec> fleet,
    const std::vector<service::CampaignId>& ids, Tally* tally) {
  std::vector<core::RunReport> reports(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ++tally->attempted;  // the campaign itself is an operation
    util::Result<service::CampaignStatus> status = manager->Status(ids[i]);
    if (!status.ok() ||
        status.value().state != service::CampaignState::kDone) {
      ++tally->failed;
      tally->Fail("campaign " + std::to_string(ids[i]) + " did not end done" +
                  (status.ok() ? ": " + status.value().error : ""));
      continue;
    }
    tally->completions += status.value().tasks_completed;
    util::Result<core::RunReport> report = manager->Wait(ids[i]);
    if (!report.ok()) {
      ++tally->failed;
      tally->Fail("campaign " + std::to_string(ids[i]) + " has no report");
      continue;
    }
    const std::string diff = DiffReports(refs.For(fleet[i]), report.value());
    if (!diff.empty()) {
      tally->Fail("campaign " + std::to_string(ids[i]) +
                  " differs from its CampaignRuntime reference: " + diff);
    }
    reports[i] = std::move(report).value();
  }
  return reports;
}

// A fresh manager over the round's journals: construction (which applies
// any fleet commit log) + Recover + WaitAll is recover_s. Recovered
// reports must equal the live ones.
void RecoverRound(const RoundContext& ctx, const std::string& dir,
                  const std::vector<service::CampaignId>& live_ids,
                  const std::vector<core::RunReport>& live, Tally* tally) {
  service::ManagerOptions options;
  options.num_threads = kManagerThreads;
  options.journal_dir = dir;
  options.compact_journal_bytes = ctx.spec->compact_journal_bytes;
  const uint64_t t0 = obs::NowNs();
  service::CampaignManager manager(options);
  util::Result<std::vector<service::CampaignId>> ids = [&] {
    Span span("recover", "service");
    return manager.Recover(dir, RecoveryFactory(*ctx.dataset));
  }();
  if (!ids.ok()) {
    tally->Fail("Recover: " + ids.status().ToString());
    return;
  }
  {
    Span span("wait_all", "service");
    if (!WaitAllBounded(&manager, ids.value(), ctx.deadline_ns)) {
      tally->Fail("recovered campaigns did not finish");
      return;
    }
  }
  tally->recover_s.push_back(MillisSince(t0) / 1e3);
  if (ids.value().size() != live_ids.size()) {
    tally->Fail("recovered " + std::to_string(ids.value().size()) + " of " +
                std::to_string(live_ids.size()) + " campaigns");
  }
  for (service::CampaignId id : ids.value()) {
    const auto it = std::find(live_ids.begin(), live_ids.end(), id);
    util::Result<service::CampaignStatus> status = manager.Status(id);
    util::Result<core::RunReport> report = manager.Wait(id);
    if (it == live_ids.end() || !status.ok() || !report.ok() ||
        status.value().state != service::CampaignState::kDone) {
      tally->Fail("recovered campaign " + std::to_string(id) +
                  " did not end done");
      continue;
    }
    tally->records_replayed += status.value().records_replayed;
    const std::string diff = DiffReports(
        live[static_cast<size_t>(it - live_ids.begin())], report.value());
    if (!diff.empty()) {
      tally->Fail("recovered campaign " + std::to_string(id) +
                  " differs from its live report: " + diff);
    }
  }
  manager.Shutdown();
}

// ReadJournal over every journal the round produced.
void ReadJournals(const std::string& dir, Tally* tally) {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".journal") continue;
    const uint64_t t0 = obs::NowNs();
    util::Result<persist::JournalContents> contents = [&] {
      Span span("read_journal", "persist");
      return persist::ReadJournal(entry.path().string());
    }();
    tally->journal_read_s += MillisSince(t0) / 1e3;
    if (!contents.ok()) {
      tally->Fail("ReadJournal " + entry.path().string() + ": " +
                  contents.status().ToString());
      continue;
    }
    tally->journal_read_bytes += static_cast<double>(entry.file_size(ec));
  }
}

}  // namespace

void Tally::Fail(std::string error) { AppendCapped(&errors, std::move(error)); }

void RunRound(const RoundContext& ctx, std::span<const CampaignSpec> fleet,
              int round, bool recover, Tally* tally) {
  const WorkloadSpec& spec = *ctx.spec;
  const bool http = spec.drive != Drive::kInline;
  const std::string dir =
      spec.journaled ? ctx.work_dir + "/journals-" + std::to_string(round)
                     : std::string();
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
  Span round_span("round", "bench");

  // ---- set-up: manager (+ intake, server, connections)
  const uint64_t setup_start = obs::NowNs();
  std::unique_ptr<service::ExternalCompletionSource> intake;
  if (http) intake = std::make_unique<service::ExternalCompletionSource>();
  service::ManagerOptions options;
  options.num_threads = kManagerThreads;
  options.journal_dir = dir;
  options.compact_journal_bytes = spec.compact_journal_bytes;
  options.completions = intake.get();
  auto manager = std::make_unique<service::CampaignManager>(options);
  std::unique_ptr<http::Server> server;
  const int connections = LoadConnections(spec);
  std::vector<std::unique_ptr<http::Client>> clients;
  if (http) {
    http::ServerOptions server_options;
    server_options.num_threads = connections;
    server_options.max_connections = connections + 4;
    server = std::make_unique<http::Server>(server_options);
    http::CampaignRoutesOptions routes;
    routes.manager = manager.get();
    routes.intake = intake.get();
    http::RegisterCampaignRoutes(server.get(), routes);
    util::Status started = server->Start();
    if (!started.ok()) {
      tally->Fail("server start: " + started.ToString());
      ++tally->failed;
      ++tally->attempted;
      return;
    }
    http::ClientRetryOptions no_retry;
    no_retry.max_attempts = 1;  // a failure must count, not be hidden
    for (int c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<http::Client>(no_retry));
      ++tally->attempted;
      util::Status connected = clients.back()->Connect("127.0.0.1",
                                                       server->port());
      if (!connected.ok()) {
        ++tally->failed;
        tally->Fail("connect: " + connected.ToString());
      }
    }
  }
  // Each campaign's strategy and stream (a copy of the future posts) are
  // built here, so work moved out of the manager into them shows in
  // set-up rather than vanishing from every clock.
  std::vector<service::CampaignConfig> configs;
  configs.reserve(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    configs.push_back(MakeConfig(*ctx.dataset, spec, fleet[i], i));
  }
  tally->construct_s.push_back(MillisSince(setup_start) / 1e3);
  std::vector<service::CampaignId> ids(fleet.size(), 0);
  MakespanPoller poller(manager.get(), fleet.size());
  LoadStats submitter;
  std::vector<LoadStats> stats(static_cast<size_t>(connections));
  std::vector<std::thread> taggers;
  std::atomic<bool> writers_done{false};
  std::atomic<int> writers_left{spec.writers};
  auto start_tagger = [&](int c, auto drive) {
    taggers.emplace_back([&, c, drive = std::move(drive)]() mutable {
      Tagger tagger(clients[static_cast<size_t>(c)].get(),
                    &stats[static_cast<size_t>(c)],
                    static_cast<uint64_t>(c + 1) << 48, ctx.deadline_ns);
      drive(&tagger, &stats[static_cast<size_t>(c)]);
    });
  };

  // ---- timed phase: first Submit .. WaitAll returns
  tally->obs.Begin();
  poller.Start();
  const uint64_t timed_start = obs::NowNs();
  if (spec.drive == Drive::kIngest) {
    for (int c = 0; c < spec.writers; ++c) {
      std::vector<OwnedCampaign> mine;
      for (size_t i = 0; i < fleet.size(); ++i) {
        if (fleet[i].client == c) {
          mine.push_back(OwnedCampaign{i, std::move(configs[i])});
        }
      }
      start_tagger(c, [&, mine = std::move(mine)](Tagger* tagger,
                                                  LoadStats* own) mutable {
        SubmitAndDriveOneAtATime(tagger, manager.get(), &poller, own,
                                 std::move(mine), &ids);
      });
    }
  } else {
    for (size_t i = 0; i < fleet.size(); ++i) {
      ids[i] = SubmitTimed(manager.get(), std::move(configs[i]), &poller,
                           &submitter);
    }
  }
  if (spec.drive == Drive::kMixed) {
    for (int c = 0; c <= spec.writers; ++c) {
      const bool dashboard = c == spec.writers;
      std::vector<service::CampaignId> mine;
      for (size_t i = 0; i < fleet.size(); ++i) {
        if (ids[i] != 0 && (dashboard || fleet[i].client == c)) {
          mine.push_back(ids[i]);
        }
      }
      start_tagger(c, [&, dashboard, mine = std::move(mine)](
                          Tagger* tagger, LoadStats* own) mutable {
        if (dashboard) {
          DriveDashboard(tagger, own, mine, &writers_done,
                         static_cast<uint64_t>(round) + 1);
          return;
        }
        DriveRotating(tagger, std::move(mine));
        if (writers_left.fetch_sub(1) == 1) writers_done.store(true);
      });
    }
  }
  // Connections leave once their campaigns are terminal (the dashboard
  // once the writers are done), so joining them first loses no time.
  for (std::thread& t : taggers) t.join();
  std::vector<service::CampaignId> submitted;
  for (service::CampaignId id : ids) {
    if (id != 0) submitted.push_back(id);
  }
  bool finished = false;
  {
    Span span("wait_all", "service");
    finished = WaitAllBounded(manager.get(), submitted, ctx.deadline_ns);
  }
  const uint64_t timed_end = obs::NowNs();
  tally->obs.End();
  poller.Finish();
  tally->windows.push_back(Window{timed_start, timed_end});
  tally->round_wall_s.push_back(static_cast<double>(timed_end - timed_start) /
                                1e9);
  tally->wall_s += tally->round_wall_s.back();
  ++tally->rounds;
  if (!finished) tally->Fail("round did not finish before the deadline");
  Merge(&submitter, tally);
  for (LoadStats& s : stats) Merge(&s, tally);
  const std::vector<double> makespans = poller.Makespans();
  tally->makespan_s.insert(tally->makespan_s.end(), makespans.begin(),
                           makespans.end());
  tally->list_us.insert(tally->list_us.end(), poller.list_us().begin(),
                        poller.list_us().end());

  // ---- checks and teardown, outside every clock
  const int64_t completions_before = tally->completions;
  const std::vector<core::RunReport> reports =
      CheckReports(manager.get(), *ctx.references, fleet, ids, tally);
  tally->round_completions.push_back(
      static_cast<double>(tally->completions - completions_before));
  if (intake != nullptr) intake->Stop();
  manager->Shutdown();
  // Closing the connections first lets Stop() drain at once instead of
  // waiting out each worker's receive tick.
  for (std::unique_ptr<http::Client>& client : clients) client->Disconnect();
  if (server != nullptr) server->Stop();
  manager.reset();
  if (!dir.empty()) {
    tally->disk_bytes += DirectoryBytes(dir);
    if (spec.recover && recover) RecoverRound(ctx, dir, ids, reports, tally);
    if (recover && ctx.read_journals) ReadJournals(dir, tally);
    fs::remove_all(dir, ec);
  }
  // Hand the round's freed heap back, so each round (and the recovery
  // after it) starts from the same footprint and rss_peak_mb reads one
  // fleet, not the allocator's fragmentation across rounds.
  malloc_trim(0);
}

// ------------------------------------------------------------ isolation

namespace {

// GET /healthz over one keep-alive connection: the fixed cost of a round
// trip through the edge with no handler work.
void IsoHealthz(MetricTable* out, std::vector<std::string>* errors) {
  constexpr int kRequests = 2000;
  service::ManagerOptions options;
  options.num_threads = 1;
  service::CampaignManager manager(options);
  http::ServerOptions server_options;
  server_options.num_threads = 1;
  http::Server server(server_options);
  http::CampaignRoutesOptions routes;
  routes.manager = &manager;
  http::RegisterCampaignRoutes(&server, routes);
  http::Client client;
  if (!server.Start().ok() ||
      !client.Connect("127.0.0.1", server.port()).ok()) {
    errors->push_back("healthz isolation: server or client failed");
    return;
  }
  std::vector<double> rtt_us;
  rtt_us.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Span span("iso.healthz", "http");
    const uint64_t t0 = obs::NowNs();
    util::Result<http::ClientResponse> reply = client.Get("/healthz");
    rtt_us.push_back(MillisSince(t0) * 1e3);
    if (!reply.ok() || reply.value().status != 200) {
      errors->push_back("healthz isolation: request failed");
      break;
    }
  }
  client.Disconnect();
  server.Stop();
  out->AddPercentile("http.healthz_rtt_p50_us", NearestRank(rtt_us, 0.5),
                     "us");
}

// ExternalCompletionSource alone: one parked batch per campaign (the
// workload's batch size), served by Pending and completed by Complete.
void IsoIntake(const WorkloadSpec& spec, MetricTable* out) {
  const size_t campaigns = static_cast<size_t>(spec.campaigns);
  const size_t batch = static_cast<size_t>(kBatchSize);
  const size_t rounds = std::max<size_t>(1, 200000 / (campaigns * batch));
  service::ExternalCompletionSource source;
  int64_t delivered = 0;
  const service::CompletionSource::CompletionFn done =
      [&delivered](std::span<const service::TaskHandle> tasks) {
        delivered += static_cast<int64_t>(tasks.size());
      };
  std::vector<service::TaskHandle> tasks(batch);
  std::vector<service::ExternalCompletion> completions(batch);
  double pending_ns = 0.0;
  double complete_ns = 0.0;
  int64_t pending_calls = 0;
  Span span("iso.intake", "service");
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < campaigns; ++c) {
      const service::CampaignId id = c + 1;
      for (size_t k = 0; k < batch; ++k) {
        const uint64_t seq = r * batch + k;
        const auto resource =
            static_cast<core::ResourceId>((seq * 7 + c) % 997);
        tasks[k] = service::TaskHandle{id, resource, seq};
        completions[k] = service::ExternalCompletion{seq, resource};
      }
      source.SubmitTasks(tasks, done);
      uint64_t t0 = obs::NowNs();
      std::vector<service::TaskHandle> pending = source.Pending(id, kBatchSize);
      pending_ns += static_cast<double>(obs::NowNs() - t0);
      ++pending_calls;
      t0 = obs::NowNs();
      source.Complete(id, completions);
      complete_ns += static_cast<double>(obs::NowNs() - t0);
    }
  }
  source.Stop();
  out->AddSampled(
      "service.intake_complete_ns_per_task",
      complete_ns / static_cast<double>(std::max<int64_t>(1, delivered)),
      "ns", static_cast<size_t>(delivered));
  out->AddSampled("service.intake_pending_us_per_call",
                  pending_ns / 1e3 / static_cast<double>(pending_calls), "us",
                  static_cast<size_t>(pending_calls));
}

// One JournalWriter on the workload's journal filesystem: batched
// appends of the workload's batch size, then append + SyncData pairs.
void IsoJournal(const RoundContext& ctx, MetricTable* out,
                std::vector<std::string>* errors) {
  constexpr int kAppendBatches = 4000;
  constexpr int kSyncs = 200;
  const std::string path = ctx.work_dir + "/iso.journal";
  util::Result<std::unique_ptr<persist::JournalWriter>> opened =
      persist::JournalWriter::Open(path, /*truncate_to=*/0);
  if (!opened.ok()) {
    errors->push_back("journal isolation: " + opened.status().ToString());
    return;
  }
  persist::JournalWriter& writer = *opened.value();
  persist::SubmitRecord submit;
  submit.name = "iso";
  submit.strategy_name = "RR";
  submit.options = OptionsFor(*ctx.spec, false);
  const size_t batch = static_cast<size_t>(kBatchSize);
  std::vector<persist::CompletionRecord> records(batch);
  uint64_t seq = 0;
  auto fill = [&] {
    for (persist::CompletionRecord& r : records) {
      r.seq = seq++;
      r.resource = static_cast<core::ResourceId>(seq % 997);
    }
  };
  Span span("iso.journal", "persist");
  util::Status status = writer.AppendSubmit(submit);
  double append_ns = 0.0;
  for (int i = 0; i < kAppendBatches && status.ok(); ++i) {
    fill();
    const uint64_t t0 = obs::NowNs();
    status = writer.AppendCompletionBatch(records.data(), records.size());
    append_ns += static_cast<double>(obs::NowNs() - t0);
  }
  std::vector<double> sync_us;
  for (int i = 0; i < kSyncs && status.ok(); ++i) {
    fill();
    status = writer.AppendCompletionBatch(records.data(), records.size());
    const uint64_t t0 = obs::NowNs();
    if (status.ok()) status = writer.SyncData();
    sync_us.push_back(MillisSince(t0) * 1e3);
  }
  if (!status.ok()) {
    errors->push_back("journal isolation: " + status.ToString());
  }
  opened.value().reset();
  std::error_code ec;
  fs::remove(path, ec);
  const double records_appended =
      static_cast<double>(kAppendBatches) * static_cast<double>(batch);
  out->AddSampled("persist.append_ns_per_record", append_ns / records_appended,
                  "ns", static_cast<size_t>(records_appended));
  out->AddPercentile("persist.sync_data_p50_us", NearestRank(sync_us, 0.5),
                     "us");
}

}  // namespace

void RunIsolation(const RoundContext& ctx, MetricTable* out,
                  std::vector<std::string>* errors) {
  IsoHealthz(out, errors);
  IsoIntake(*ctx.spec, out);
  IsoJournal(ctx, out, errors);
}

}  // namespace e2e
}  // namespace incentag
