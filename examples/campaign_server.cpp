// Campaign server: 100 concurrent mixed-strategy tagging campaigns.
//
// The production picture behind the paper's single-campaign Algorithm 1:
// a tagging platform runs one incentive campaign per community — distinct
// budgets, batch sizes and allocation strategies — against a shared
// resource catalogue, with a simulated tagger crowd completing post tasks
// asynchronously. The server submits every campaign to a CampaignManager,
// polls live CampaignStatus snapshots while they run (the operator
// dashboard), and prints a per-strategy rollup when the fleet drains.
//
//   ./build/examples/campaign_server --campaigns=100 --n=400
//       --threads=8 --taggers=16 --latency_us=50
//
// Durability demo (kill-and-recover): with --journal_dir every campaign
// appends a write-ahead journal, and --kill_after_polls=N exits abruptly
// (no destructors, no final fsync — a crash) mid-fleet. Re-running with
// --recover resurrects every journaled campaign from its SubmitRecord,
// replays the recorded completions, and drains the fleet to the same
// reports the uninterrupted run would have produced:
//
//   ./build/examples/campaign_server --journal_dir=/tmp/itag-journals
//       --compact_bytes=4200 --kill_after_polls=3   # "crash" mid-fleet
//   ./build/examples/campaign_server --journal_dir=/tmp/itag-journals
//       --recover                   # resumes them where the journal ends
//
// With --compact_bytes the journals are checkpoint-compacted as they
// grow (format v2): recovery seeks to each journal's snapshot and
// replays only the tail — the --recover run prints journal bytes and
// records replayed per campaign so the effect is visible end to end.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

// Scheduling demo (mixed fleet): --scheduler=rr|priority|edf picks the
// stepping policy; every 4th campaign becomes "critical" — it gets
// --priority and, with --deadline_ms, a completion deadline. The final
// rollup prints per-class quanta, deadline slack and miss counts, so the
// policies are directly comparable:
//
//   ./build/examples/campaign_server --scheduler=edf --priority=8
//       --deadline_ms=500 --threads=2
// HTTP edge demo (ISSUE 8): --http_port exposes the fleet's /v1 REST
// surface (submit, listing, status, metrics — see src/http/README.md)
// while the fleet runs; --http_ingest switches completions from the
// simulated crowd to the idempotent intake endpoint, so external
// taggers drive the fleet with GET tasks / POST completions;
// --serve_seconds holds the server open that long (tools/http_smoke.sh
// drives the whole surface with curl):
//
//   ./build/examples/campaign_server --http_port=8080 --http_ingest
//       --campaigns=0 --serve_seconds=30
#include "src/core/strategy_fc.h"
#include "src/core/strategy_fp.h"
#include "src/core/strategy_fpmu.h"
#include "src/core/strategy_mu.h"
#include "src/core/strategy_rr.h"
#include "src/http/campaign_routes.h"
#include "src/http/server.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/persist/journal.h"
#include "src/service/api/dto.h"
#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/sim/crowd.h"
#include "src/sim/dataset_prep.h"
#include "src/sim/generator.h"
#include "src/sim/load_generator.h"
#include "src/sim/strategy_factory.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace {

using namespace incentag;

// Every campaign's status via the paginated List API — the dashboard
// and rollups page through the same read path as GET /v1/campaigns, so
// they also see campaigns submitted over HTTP.
std::vector<service::CampaignStatus> ListAll(
    const service::CampaignManager& manager) {
  std::vector<service::CampaignStatus> all;
  service::ListQuery query;
  query.limit = service::ListQuery::kMaxLimit;
  for (;;) {
    service::CampaignPage page = manager.List(query);
    if (page.statuses.empty()) break;
    query.offset += page.statuses.size();
    for (service::CampaignStatus& status : page.statuses) {
      all.push_back(std::move(status));
    }
    if (query.offset >= page.total) break;
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t n = 400;
  int64_t campaigns = 100;
  int64_t threads = 0;
  int64_t taggers = 8;
  double latency_us = 20.0;
  int64_t seed = 42;
  std::string journal_dir;
  bool recover = false;
  int64_t kill_after_polls = 0;
  int64_t compact_bytes = 0;
  std::string scheduler = "rr";
  int64_t priority = 4;
  double deadline_ms = 0.0;
  int64_t http_port = -1;
  bool http_ingest = false;
  int64_t serve_seconds = 0;
  std::string metrics_json;
  std::string trace_json;
  std::string log_level = "info";
  util::FlagSet flags;
  flags.AddInt("n", &n, "resources in the shared catalogue");
  flags.AddInt("campaigns", &campaigns, "campaigns to run");
  util::AddThreadsFlag(&flags, &threads);
  flags.AddInt("taggers", &taggers, "simulated tagger threads");
  flags.AddDouble("latency_us", &latency_us, "mean tagger latency (us)");
  flags.AddInt("seed", &seed, "corpus / campaign seed");
  flags.AddString("journal_dir", &journal_dir,
                  "write-ahead journal directory ('' = no journaling)");
  flags.AddBool("recover", &recover,
                "recover journaled campaigns from --journal_dir instead of "
                "submitting a fresh fleet");
  flags.AddInt("kill_after_polls", &kill_after_polls,
               "simulate a crash: _Exit() after this many dashboard polls "
               "(0 = run to completion)");
  flags.AddInt("compact_bytes", &compact_bytes,
               "checkpoint-compact each journal once it grows this many "
               "bytes past its last snapshot (0 = off; needs "
               "--journal_dir)");
  flags.AddString("scheduler", &scheduler,
                  "cross-campaign stepping policy: rr|priority|edf");
  flags.AddInt("priority", &priority,
               "priority weight of the critical tier (every 4th "
               "campaign; the rest run at priority 1)");
  flags.AddDouble("deadline_ms", &deadline_ms,
                  "completion deadline for the critical tier, "
                  "milliseconds (0 = none)");
  flags.AddInt("http_port", &http_port,
               "serve the /v1 REST API on 127.0.0.1:<port> while the "
               "fleet runs (0 = ephemeral, printed at startup; -1 = off)");
  flags.AddBool("http_ingest", &http_ingest,
                "complete tasks through POST /v1/campaigns/{id}/"
                "completions instead of the simulated crowd (needs "
                "--http_port)");
  flags.AddInt("serve_seconds", &serve_seconds,
               "keep the HTTP server (and the dashboard) up at least "
               "this long, even with no campaigns running (0 = exit "
               "when the fleet drains)");
  flags.AddString("metrics_json", &metrics_json,
                  "write the fleet metrics snapshot (JSON) here, rewritten "
                  "each dashboard poll and once after drain ('' = off)");
  flags.AddString("trace_json", &trace_json,
                  "record quantum lifecycle spans and write Chrome "
                  "trace_event JSON here at exit ('' = off)");
  flags.AddString("log_level", &log_level,
                  "stderr verbosity: debug|info|warn|error|none");
  util::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\nusage:\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  util::LogLevel level;
  if (!util::ParseLogLevel(log_level, &level)) {
    std::fprintf(stderr, "bad --log_level=%s (want debug|info|warn|error|"
                 "none)\n", log_level.c_str());
    return 1;
  }
  util::SetLogLevel(level);
  if (!trace_json.empty()) obs::Trace::Enable(65536);

  // Shared catalogue: one corpus, one prepared dataset for all campaigns.
  sim::CorpusConfig corpus_config;
  corpus_config.num_resources = n;
  corpus_config.seed = static_cast<uint64_t>(seed);
  auto corpus = sim::Corpus::Generate(corpus_config);
  INCENTAG_CHECK(corpus.ok());
  auto prep = sim::PrepareFromCorpus(corpus.value(), sim::PrepConfig{});
  INCENTAG_CHECK(prep.ok());
  const sim::PreparedDataset& ds = prep.value();
  std::printf("catalogue: %zu stable resources\n", ds.size());

  sim::LoadGeneratorOptions load_options;
  load_options.num_taggers = static_cast<int>(taggers);
  load_options.mean_latency_us = latency_us;
  load_options.seed = static_cast<uint64_t>(seed) + 1;
  sim::CrowdLoadGenerator crowd(load_options);
  service::ExternalCompletionSource intake;
  if (http_ingest && http_port < 0) {
    std::fprintf(stderr, "--http_ingest needs --http_port\n");
    return 1;
  }

  auto policy = service::ParseSchedulerPolicy(scheduler);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }
  service::ManagerOptions manager_options;
  manager_options.num_threads = static_cast<int>(threads);
  manager_options.completions = http_ingest
                                    ? static_cast<service::CompletionSource*>(
                                          &intake)
                                    : &crowd;
  manager_options.journal_dir = journal_dir;
  manager_options.compact_journal_bytes = compact_bytes;
  manager_options.scheduler.policy = policy.value();
  service::CampaignManager manager(manager_options);
  std::printf("manager: %d worker threads, %lld tagger threads, %s "
              "scheduler%s\n",
              manager.num_threads(), static_cast<long long>(taggers),
              service::SchedulerPolicyName(policy.value()),
              journal_dir.empty() ? ""
                                  : (" (journaling to " + journal_dir + ")")
                                        .c_str());

  // The /v1 REST edge: submit/list/status/metrics always; with
  // --http_ingest also the tasks/completions intake endpoints.
  std::unique_ptr<http::Server> server;
  if (http_port >= 0) {
    http::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(http_port);
    server = std::make_unique<http::Server>(server_options);
    http::CampaignRoutesOptions routes;
    routes.manager = &manager;
    if (http_ingest) routes.intake = &intake;
    routes.builder =
        [&ds](const service::api::SubmitCampaignRequest& request)
        -> util::Result<service::CampaignConfig> {
      service::CampaignConfig config;
      config.name = request.name;
      config.options.budget = request.budget;
      config.options.omega = request.omega;
      config.options.under_tagged_threshold =
          request.under_tagged_threshold;
      config.options.batch_size = request.batch_size;
      config.options.priority = request.priority;
      config.options.deadline_seconds = request.deadline_seconds;
      config.initial_posts = &ds.initial_posts;
      config.references = &ds.references;
      config.seed = request.seed;
      config.strategy = sim::MakeStrategyByName(
          request.strategy, ds.popularity, request.seed, &config.context);
      if (config.strategy == nullptr) {
        return util::Status::InvalidArgument("unknown strategy " +
                                             request.strategy);
      }
      config.stream =
          std::make_unique<core::VectorPostStream>(ds.MakeStream());
      return config;
    };
    http::RegisterCampaignRoutes(server.get(), routes);
    util::Status serving = server->Start();
    if (!serving.ok()) {
      std::fprintf(stderr, "http: %s\n", serving.ToString().c_str());
      return 1;
    }
    std::printf("serving /v1 on 127.0.0.1:%u%s\n", server->port(),
                http_ingest ? " (external completion intake)" : "");
  }

  std::vector<service::CampaignId> ids;
  if (recover) {
    // Crash recovery: rebuild every journaled campaign from its
    // SubmitRecord (the factory re-attaches the shared dataset and the
    // strategy named in the record), replay its completion trace, and
    // let the fleet continue live exactly where the journals end.
    INCENTAG_CHECK(!journal_dir.empty());
    auto recovered = manager.Recover(
        journal_dir,
        [&ds](const persist::SubmitRecord& record)
            -> util::Result<service::CampaignConfig> {
          service::CampaignConfig config;
          config.name = record.name;
          config.options = record.options;
          config.initial_posts = &ds.initial_posts;
          config.references = &ds.references;
          config.seed = record.seed;
          config.strategy =
              sim::MakeStrategyByName(record.strategy_name, ds.popularity,
                                      record.seed, &config.context);
          if (config.strategy == nullptr) {
            return util::Status::InvalidArgument("unknown strategy " +
                                                 record.strategy_name);
          }
          config.stream =
              std::make_unique<core::VectorPostStream>(ds.MakeStream());
          return config;
        });
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover %s: %s\n", journal_dir.c_str(),
                   recovered.status().ToString().c_str());
      return 1;
    }
    ids = recovered.value();
    std::printf("recovered %zu journaled campaigns from %s\n", ids.size(),
                journal_dir.c_str());
    // The compaction payoff, per journal: bytes on disk and how many
    // tail records the snapshot seek left to replay.
    int64_t total_bytes = 0;
    int64_t total_replayed = 0;
    for (service::CampaignId id : ids) {
      auto status = manager.Status(id);
      if (!status.ok()) continue;
      const std::string path =
          journal_dir + "/campaign-" + std::to_string(id) + ".journal";
      std::error_code ec;
      const int64_t bytes =
          static_cast<int64_t>(std::filesystem::file_size(path, ec));
      total_bytes += ec ? 0 : bytes;
      total_replayed += status.value().records_replayed;
      std::printf("  %-24s journal %8lld bytes, %6lld records replayed\n",
                  status.value().name.c_str(),
                  static_cast<long long>(ec ? 0 : bytes),
                  static_cast<long long>(status.value().records_replayed));
    }
    std::printf("  total: %lld journal bytes, %lld records replayed\n",
                static_cast<long long>(total_bytes),
                static_cast<long long>(total_replayed));
  } else {
    // A fleet of heterogeneous campaigns: strategy, budget and batch size
    // all vary, the way per-community campaigns would.
    util::Rng rng(static_cast<uint64_t>(seed) + 2);
    for (int64_t i = 0; i < campaigns; ++i) {
      service::CampaignConfig config;
      config.options.budget =
          200 + static_cast<int64_t>(rng.NextBounded(800));
      config.options.omega = 5;
      config.options.batch_size =
          1 + static_cast<int64_t>(rng.NextBounded(64));
      config.initial_posts = &ds.initial_posts;
      config.references = &ds.references;
      config.stream =
          std::make_unique<core::VectorPostStream>(ds.MakeStream());
      config.seed = rng.NextUint64();  // journaled; rebuilds FC's crowd
      config.strategy =
          sim::MakeStrategyByName(sim::StrategyNameForKind(i), ds.popularity,
                                  config.seed, &config.context);
      // Mixed fleet: every 4th campaign is the "critical" tier — higher
      // priority (weighted quanta under --scheduler=priority) and, with
      // --deadline_ms, an EDF deadline. Both travel with the campaign
      // through the journal, so a recovered fleet keeps its classes.
      const bool critical = i % 4 == 0;
      if (critical) {
        config.options.priority = static_cast<int32_t>(priority);
        config.options.deadline_seconds = deadline_ms / 1000.0;
      }
      config.name = (critical ? "critical-" : "community-") +
                    std::to_string(i);
      auto id = manager.Submit(std::move(config));
      INCENTAG_CHECK(id.ok());
      ids.push_back(id.value());
    }
  }

  // Operator dashboard: poll snapshots while the fleet runs. Paged
  // through List, the same API the HTTP listing endpoint serves, so
  // campaigns POSTed over /v1 show up too. With --serve_seconds the
  // loop (and the HTTP server) stays up at least that long even after
  // the fleet drains.
  const int total_polls =
      std::max<int64_t>(100, serve_seconds * 20);
  for (int poll = 0; poll < total_polls; ++poll) {
    int64_t running = 0;
    int64_t spent = 0;
    int64_t tasks = 0;
    int64_t in_flight = 0;
    for (const service::CampaignStatus& s : ListAll(manager)) {
      if (!service::IsTerminal(s.state)) ++running;
      spent += s.budget_spent;
      tasks += s.tasks_completed;
      in_flight += s.tasks_in_flight;
    }
    std::printf(
        "[poll %2d] running=%lld spent=%lld tasks=%lld in_flight=%lld\n",
        poll, static_cast<long long>(running),
        static_cast<long long>(spent), static_cast<long long>(tasks),
        static_cast<long long>(in_flight));
    if (!metrics_json.empty()) {
      // Periodic dump: rewritten in place so an operator (or a crash
      // autopsy) always finds the latest snapshot.
      util::Status written = obs::WriteSnapshotJson(
          obs::Registry::Default().Snapshot(), metrics_json);
      if (!written.ok()) {
        INCENTAG_LOG_WARN("metrics dump failed: %s",
                          written.ToString().c_str());
      }
    }
    if (running == 0 && poll * 50 >= serve_seconds * 1000) break;
    if (kill_after_polls > 0 && poll + 1 >= kill_after_polls) {
      // Simulated crash: no destructors, no Shutdown, no final fsync —
      // whatever the JournalSink batched to disk is all that survives.
      // Re-run with --recover to resume the fleet from the journals.
      std::printf("simulating crash with %lld campaigns mid-run "
                  "(journals in %s)\n",
                  static_cast<long long>(running), journal_dir.c_str());
      std::fflush(stdout);  // only the dashboard; journals stay unsynced
      std::_Exit(42);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Ingest campaigns whose external taggers never finished would hold
  // WaitAll forever once the serve window closes; cancel the stragglers
  // so the rollup still prints.
  if (http_ingest) {
    for (const service::CampaignStatus& s : ListAll(manager)) {
      if (!service::IsTerminal(s.state)) {
        (void)manager.Cancel(s.id);
      }
    }
    intake.Stop();
  }
  manager.WaitAll();

  // Per-strategy rollup across the fleet.
  struct Agg {
    int64_t campaigns = 0;
    int64_t tasks = 0;
    double quality = 0.0;
    int64_t wasted = 0;
    double seconds = 0.0;
  };
  std::map<std::string, Agg> by_strategy;
  const std::vector<service::CampaignStatus> fleet = ListAll(manager);
  for (const service::CampaignStatus& s : fleet) {
    if (s.state != service::CampaignState::kDone) {
      // The state names are string literals, so data() is terminated.
      std::fprintf(stderr, "%s ended %s: %s\n", s.name.c_str(),
                   service::api::CampaignStateName(s.state).data(),
                   s.error.c_str());
      continue;
    }
    Agg& agg = by_strategy[s.strategy];
    ++agg.campaigns;
    agg.tasks += s.tasks_completed;
    agg.quality += s.metrics.avg_quality;
    agg.wasted += s.metrics.wasted_posts;
    agg.seconds += s.elapsed_seconds;
  }
  std::printf("\n%-8s %10s %10s %12s %10s %10s\n", "strategy", "campaigns",
              "tasks", "avg quality", "wasted", "avg secs");
  for (const auto& [name, agg] : by_strategy) {
    std::printf("%-8s %10lld %10lld %12.4f %10lld %10.3f\n", name.c_str(),
                static_cast<long long>(agg.campaigns),
                static_cast<long long>(agg.tasks),
                agg.quality / static_cast<double>(agg.campaigns),
                static_cast<long long>(agg.wasted),
                agg.seconds / static_cast<double>(agg.campaigns));
  }

  // Scheduling rollup: quanta and deadline outcomes per class, so
  // --scheduler=rr vs priority vs edf is directly comparable.
  struct ClassAgg {
    int64_t campaigns = 0;
    int64_t quanta = 0;
    int64_t misses = 0;
    double worst_slack = 0.0;
    bool any_deadline = false;
  };
  ClassAgg critical_agg;
  ClassAgg background_agg;
  for (const service::CampaignStatus& s : fleet) {
    const bool is_critical =
        s.priority > 1 || s.name.rfind("critical-", 0) == 0;
    ClassAgg& agg = is_critical ? critical_agg : background_agg;
    ++agg.campaigns;
    agg.quanta += s.quanta_run;
    if (is_critical && deadline_ms > 0.0) {
      if (s.deadline_slack_seconds < 0.0) ++agg.misses;
      if (!agg.any_deadline ||
          s.deadline_slack_seconds < agg.worst_slack) {
        agg.worst_slack = s.deadline_slack_seconds;
      }
      agg.any_deadline = true;
    }
  }
  std::printf("\nscheduler rollup (%s):\n",
              service::SchedulerPolicyName(policy.value()));
  auto print_class = [](const char* label, const ClassAgg& agg) {
    std::printf("  %-10s %3lld campaigns, %6lld quanta", label,
                static_cast<long long>(agg.campaigns),
                static_cast<long long>(agg.quanta));
    if (agg.any_deadline) {
      std::printf(", %lld deadline misses, worst slack %.3fs",
                  static_cast<long long>(agg.misses), agg.worst_slack);
    }
    std::printf("\n");
  };
  print_class("critical", critical_agg);
  print_class("background", background_agg);

  if (server != nullptr) server->Stop();
  crowd.Stop();
  manager.Shutdown();
  // Final dumps after the drain, so the files cover the whole run.
  if (!metrics_json.empty()) {
    util::Status written = obs::WriteSnapshotJson(
        obs::Registry::Default().Snapshot(), metrics_json);
    INCENTAG_CHECK(written.ok());
    std::printf("metrics snapshot written to %s\n", metrics_json.c_str());
  }
  if (!trace_json.empty()) {
    util::Status written = obs::Trace::WriteChromeJson(trace_json);
    INCENTAG_CHECK(written.ok());
    std::printf("trace written to %s (chrome://tracing)\n",
                trace_json.c_str());
  }
  std::printf("\nall %zu campaigns drained; %lld tasks completed by the "
              "crowd\n",
              fleet.size(), static_cast<long long>(crowd.completed()));
  return 0;
}
