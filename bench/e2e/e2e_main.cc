// e2e_bench: one workload of the end-to-end fleet benchmark, in its own
// process (clean obs counters, clean peak RSS). bench/e2e/run.sh builds
// it and is the way to run it; see bench/e2e/README.md.
//
//   e2e_bench --workload=fleet_inline --seed=1 --seconds=20 --trace=0
//       --work_dir=build-e2e/work --out=doc.json
//       --benchmark_json=BENCHMARK.json
//
// Prints `<workload> <metric> <value> <unit>` per metric, writes the full
// JSON document to --out, and ends stdout with one JSON line carrying the
// metrics BENCHMARK.json names (end_to_end with --trace=0, per_layer with
// --trace=1). Exits non-zero when any output is wrong.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/e2e/fleet.h"
#include "bench/e2e/measure.h"
#include "bench/e2e/workloads.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/file_io.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/logging.h"

namespace incentag {
namespace e2e {
namespace {

using util::json::Value;

// Hard caps that keep one invocation inside its 180 s limit.
constexpr double kMaxMeasureSeconds = 110.0;
constexpr double kDeadlineSeconds = 150.0;
constexpr size_t kTraceRingCapacity = 1 << 16;
constexpr int kTracedRounds = 2;

struct Flags {
  std::string workload;
  int64_t seed = 1;
  double seconds = 20.0;
  int64_t trace = 0;
  bool smoke = false;
  std::string work_dir;
  std::string out;
  std::string trace_out;
  std::string benchmark_json;
  std::string git_sha = "unknown";
};

// ------------------------------------------------------------ machine

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FsTypeName(long type) {
  switch (static_cast<unsigned long>(type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6969UL:
      return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(type));
      return buf;
    }
  }
}

Value MachineRecord(const Flags& flags, std::string* fs_type) {
  struct statfs fs {};
  *fs_type = statfs(flags.work_dir.c_str(), &fs) == 0 ? FsTypeName(fs.f_type)
                                                       : "unknown";
  struct utsname uts {};
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                       : "unknown";
  Value m = Value::Object();
  m.Set("nproc", Value::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  m.Set("cpu_model", Value::Str(CpuModel()));
  m.Set("kernel", Value::Str(kernel));
  m.Set("journal_fs", Value::Str(*fs_type));
  m.Set("build_type", Value::Str(INCENTAG_E2E_BUILD_TYPE));
  m.Set("sanitizer", Value::Str(INCENTAG_E2E_SANITIZE));
  m.Set("git_sha", Value::Str(flags.git_sha));
  m.Set("seed", Value::Int(flags.seed));
  return m;
}

// Numbers from a debug, sanitizer or tmpfs-journal build measure the
// wrong thing; --smoke only checks plumbing and is exempt.
std::string RefusalReason(const WorkloadSpec& spec, const std::string& fs) {
  if (std::string(INCENTAG_E2E_BUILD_TYPE) != "Release") {
    return std::string("build type is '") + INCENTAG_E2E_BUILD_TYPE +
           "', not Release";
  }
  if (std::string(INCENTAG_E2E_SANITIZE).size() > 0) {
    return std::string("sanitizer build (") + INCENTAG_E2E_SANITIZE + ")";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
  if (spec.journaled && fs == "tmpfs") {
    return "journals would go to tmpfs; fsync would cost nothing";
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ metrics

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// One dataset preparation, timed and checked against the run's dataset.
void TimePreparation(const WorkloadSpec& spec, int64_t seed,
                     const Dataset& dataset, Tally* tally) {
  const uint64_t t0 = obs::NowNs();
  util::Result<std::unique_ptr<Dataset>> again =
      PrepareDataset(spec.resources, static_cast<uint64_t>(seed));
  tally->prepare_s.push_back(static_cast<double>(obs::NowNs() - t0) / 1e9);
  if (!again.ok()) {
    tally->Fail("dataset: " + again.status().ToString());
  } else if (!SameDataset(dataset.prepared, again.value()->prepared)) {
    tally->Fail("dataset preparation is not deterministic");
  }
}

void AddEndToEnd(const WorkloadSpec& spec, const Tally& t, MetricTable* m) {
  const double completions = static_cast<double>(t.completions);
  // A round's set-up: its dataset preparation, its manager (and server
  // and connections) and its campaign configs.
  std::vector<double> setup_s;
  for (size_t i = 0; i < std::min(t.prepare_s.size(), t.construct_s.size());
       ++i) {
    setup_s.push_back(t.prepare_s[i] + t.construct_s[i]);
  }
  m->AddSampled("setup_s", Median(setup_s), "s", setup_s.size());
  m->Add("completions_per_s", Ratio(completions, t.wall_s), "1/s");
  m->AddPercentile("makespan_p50_s", NearestRank(t.makespan_s, 0.50), "s");
  m->AddPercentile("makespan_p95_s", NearestRank(t.makespan_s, 0.95), "s");
  if (spec.drive != Drive::kInline) {
    m->AddPercentile("pull_p50_ms", NearestRank(t.pull_ms, 0.50), "ms");
    m->AddPercentile("pull_p99_ms", NearestRank(t.pull_ms, 0.99), "ms");
    m->AddPercentile("post_p50_ms", NearestRank(t.post_ms, 0.50), "ms");
    m->AddPercentile("post_p99_ms", NearestRank(t.post_ms, 0.99), "ms");
  }
  if (spec.drive == Drive::kMixed) {
    m->AddPercentile("read_p50_ms", NearestRank(t.read_ms, 0.50), "ms");
    m->AddPercentile("read_p99_ms", NearestRank(t.read_ms, 0.99), "ms");
  }
  if (spec.recover) {
    m->AddSampled("recover_s", Median(t.recover_s), "s", t.recover_s.size());
  }
  if (spec.journaled) {
    m->Add("disk_bytes_per_completion",
           Ratio(static_cast<double>(t.disk_bytes), completions), "bytes");
  }
}

void AddPerLayer(const WorkloadSpec& spec, const Tally& t,
                 const References& refs, MetricTable* m,
                 std::vector<std::string>* errors) {
  const ObsDelta& o = t.obs;
  const double completions = static_cast<double>(t.completions);
  const double wall = t.wall_s;

  // http
  if (spec.drive != Drive::kInline) {
    const double server_us = o.HistMean("incentag_http_request_seconds") * 1e6;
    m->Add("http.server_request_mean_us", server_us, "us");
    for (const char* route : {"tasks", "completions", "status"}) {
      m->Add(std::string("http.route_mean_us.") + route,
             o.HistMean("incentag_http_route_seconds",
                        std::string("route=\"") + route + "\"") *
                 1e6,
             "us");
    }
    if (spec.drive == Drive::kMixed) {
      for (const char* route : {"list", "metrics"}) {
        m->Add(std::string("http.route_mean_us.") + route,
               o.HistMean("incentag_http_route_seconds",
                          std::string("route=\"") + route + "\"") *
                   1e6,
               "us");
      }
    }
    m->Add("http.client_overhead_mean_us",
           Ratio(t.client_rtt_us, static_cast<double>(t.client_requests)) -
               server_us,
           "us");
    m->Add("http.empty_pull_frac",
           Ratio(static_cast<double>(t.empty_pulls),
                 static_cast<double>(t.pulls)),
           "frac");
    m->Add("http.bytes_per_completion",
           Ratio(static_cast<double>(t.http_body_bytes), completions),
           "bytes");
    m->Add("http.rejects",
           static_cast<double>(o.Counter("incentag_http_rejects_total")),
           "count");
    m->Add("http.connections_shed",
           static_cast<double>(
               o.Counter("incentag_http_connections_shed_total")),
           "count");
    const int64_t delivered =
        o.Counter("incentag_service_intake_delivered_total");
    const int64_t duplicates =
        o.Counter("incentag_service_intake_duplicates_total");
    const int64_t unknown = o.Counter("incentag_service_intake_unknown_total");
    const int64_t invalid = o.Counter("incentag_service_intake_invalid_total");
    m->Add("service.intake_delivered", static_cast<double>(delivered),
           "count");
    m->Add("service.intake_duplicates", static_cast<double>(duplicates),
           "count");
    m->Add("service.intake_unknown", static_cast<double>(unknown), "count");
    m->Add("service.intake_invalid", static_cast<double>(invalid), "count");
    m->Add("service.intake_dropped",
           static_cast<double>(delivered - t.completions), "count");
    m->Add("service.intake_useful_frac",
           Ratio(completions, static_cast<double>(delivered)), "frac");
    // Taggers echo exactly what they pulled; a duplicate is a benign
    // re-delivery, an unknown or invalid seq is a wrong answer.
    if (unknown + invalid > 0) {
      errors->push_back("intake classified pulled tasks as unknown or "
                        "invalid");
    }
  }

  // service
  m->AddPercentile("service.submit_p50_ms", NearestRank(t.submit_ms, 0.50),
                   "ms");
  if (spec.drive != Drive::kIngest) {
    m->AddPercentile("service.submit_p99_ms", NearestRank(t.submit_ms, 0.99),
                     "ms");
  }
  m->AddPercentile("service.list_p50_us", NearestRank(t.list_us, 0.50), "us");
  m->AddPercentile("service.list_p99_us", NearestRank(t.list_us, 0.99), "us");
  m->Add("service.completion_batch_mean",
         o.HistMean("incentag_service_completion_batch_size"), "count");
  const double bypass =
      static_cast<double>(o.Counter("incentag_service_reorder_bypass_total"));
  const double heap =
      static_cast<double>(o.Counter("incentag_service_reorder_heap_total"));
  m->Add("service.reorder_bypass_frac", Ratio(bypass, bypass + heap), "frac");

  // scheduler
  m->Add("scheduler.queue_wait_mean_us.critical",
         o.HistMean("incentag_scheduler_queue_wait_seconds",
                    "class=\"critical\"") *
             1e6,
         "us");
  m->Add("scheduler.queue_wait_mean_us.background",
         o.HistMean("incentag_scheduler_queue_wait_seconds",
                    "class=\"background\"") *
             1e6,
         "us");
  const double quanta =
      static_cast<double>(o.HistCount("incentag_scheduler_quantum_seconds"));
  const double quantum_s = o.HistSum("incentag_scheduler_quantum_seconds");
  m->Add("scheduler.quantum_mean_us", Ratio(quantum_s, quanta) * 1e6, "us");
  m->Add("scheduler.steals",
         static_cast<double>(o.Counter("incentag_scheduler_steals_total")),
         "count");
  m->Add("scheduler.busy_frac", Ratio(quantum_s, kManagerThreads * wall),
         "frac");
  m->Add("scheduler.quanta_per_1k_completions",
         Ratio(quanta * 1000.0, completions), "count");

  // core
  const int64_t applied = o.Counter("incentag_core_tasks_applied_total");
  m->Add("core.tasks_applied", static_cast<double>(applied), "count");
  if (applied != t.completions) {
    errors->push_back("core.tasks_applied (" + std::to_string(applied) +
                      ") != tasks_completed (" +
                      std::to_string(t.completions) + ")");
  }
  for (int s = 0; s < kNumStrategies; ++s) {
    const CoreTiming& timing = refs.timing[s];
    const double tasks = static_cast<double>(timing.tasks);
    m->AddSampled(std::string("core.choose_ns_per_task.") + kStrategies[s],
                  Ratio(timing.draw_ns, tasks), "ns",
                  static_cast<size_t>(timing.tasks));
    m->AddSampled(std::string("core.apply_ns_per_task.") + kStrategies[s],
                  Ratio(timing.apply_ns, tasks), "ns",
                  static_cast<size_t>(timing.tasks));
  }

  // persist
  if (spec.journaled) {
    const double appended =
        static_cast<double>(o.Counter("incentag_persist_append_bytes_total"));
    const double fsyncs =
        static_cast<double>(o.HistCount("incentag_persist_fsync_seconds"));
    const double fsync_s = o.HistSum("incentag_persist_fsync_seconds");
    const double passes = static_cast<double>(
        o.HistCount("incentag_persist_group_commit_batch_size"));
    m->Add("persist.append_bytes_per_completion", Ratio(appended, completions),
           "bytes");
    m->Add("persist.fsync_mean_us", Ratio(fsync_s, fsyncs) * 1e6, "us");
    m->Add("persist.fsyncs_per_s", Ratio(fsyncs, wall), "1/s");
    m->Add("persist.completions_per_fsync", Ratio(completions, fsyncs),
           "count");
    m->Add("persist.group_commit_batch_mean",
           o.HistMean("incentag_persist_group_commit_batch_size"), "count");
    m->Add("persist.sink_busy_frac", Ratio(fsync_s, wall), "frac");
    // Passes over more than 4 dirty journals take the commit-log rung
    // (FsyncDomainOptions::per_fd_threshold); 4 is a bucket bound, so the
    // count is exact.
    m->Add("persist.log_rung_pass_frac",
           Ratio(static_cast<double>(o.HistCountAbove(
                     "incentag_persist_group_commit_batch_size", 4.0)),
                 passes),
           "frac");
    m->Add("persist.retry_attempts",
           static_cast<double>(
               o.Counter("incentag_persist_retry_attempts_total")),
           "count");
    m->Add("persist.compactions",
           static_cast<double>(
               o.Counter("incentag_persist_compactions_total")),
           "count");
    if (spec.compact_journal_bytes > 0) {
      m->Add("persist.compaction_mean_ms",
             o.HistMean("incentag_persist_compaction_seconds") * 1e3, "ms");
      m->Add("persist.compaction_reclaimed_frac",
             Ratio(static_cast<double>(o.Counter(
                       "incentag_persist_compaction_bytes_reclaimed_total")),
                   appended),
             "frac");
    }
    if (spec.recover) {
      m->Add("persist.records_replayed",
             static_cast<double>(t.records_replayed), "count");
    }
    m->Add("persist.read_mb_per_s",
           Ratio(t.journal_read_bytes / 1e6, t.journal_read_s), "MB/s");
  }

  // sim, bench
  m->AddSampled("sim.dataset_prep_s", Median(t.prepare_s), "s",
                t.prepare_s.size());
  const int load_threads =
      spec.drive == Drive::kInline ? 1 : LoadConnections(spec);
  double attributed = quantum_s;
  for (double ms : t.submit_ms) attributed += ms / 1e3;
  attributed += t.client_rtt_us / 1e6;
  m->Add("bench.unattributed_frac",
         1.0 - Ratio(attributed, (kManagerThreads + load_threads) * wall),
         "frac");
}

// ------------------------------------------------------------ output

struct BenchmarkNames {
  std::vector<std::pair<std::string, std::string>> end_to_end;  // name, unit
  std::vector<std::pair<std::string, std::string>> per_layer;
};

util::Result<BenchmarkNames> LoadBenchmarkNames(const std::string& path) {
  util::Result<std::string> text = util::ReadFileToString(path);
  if (!text.ok()) return text.status();
  util::Result<Value> doc = util::json::Parse(text.value());
  if (!doc.ok()) return doc.status();
  BenchmarkNames names;
  for (const char* key : {"end_to_end", "per_layer"}) {
    const Value* list = doc.value().Find(key);
    if (list == nullptr || !list->is_array()) {
      return util::Status::InvalidArgument(std::string(key) + " missing in " +
                                           path);
    }
    for (const Value& metric : list->items()) {
      const Value* name = metric.Find("name");
      const Value* unit = metric.Find("unit");
      if (name == nullptr || unit == nullptr) {
        return util::Status::InvalidArgument("malformed metric in " + path);
      }
      (std::string(key) == "end_to_end" ? names.end_to_end : names.per_layer)
          .emplace_back(name->string_value(), unit->string_value());
    }
  }
  return names;
}

void PrintMetrics(const std::string& workload, const MetricTable& table) {
  for (const Metric& m : table.all()) {
    std::printf("%s %s %s %s", workload.c_str(), m.name.c_str(),
                FormatDouble(m.value).c_str(), m.unit.c_str());
    if (m.samples >= 0) {
      std::printf(" n=%lld", static_cast<long long>(m.samples));
    }
    if (!m.resolved) std::printf(" unresolved");
    std::printf("\n");
  }
}

Value MetricsJson(const MetricTable& table) {
  Value out = Value::Object();
  for (const Metric& m : table.all()) {
    Value v = Value::Object();
    v.Set("value", Value::Number(m.value));
    v.Set("unit", Value::Str(m.unit));
    if (m.samples >= 0) {
      v.Set("samples", Value::Int(m.samples));
      v.Set("resolved", Value::Bool(m.resolved));
    }
    out.Set(m.name, std::move(v));
  }
  return out;
}

Value ErrorsJson(const std::vector<std::string>& errors) {
  Value out = Value::Array();
  for (const std::string& e : errors) out.Append(Value::Str(e));
  return out;
}

int Run(const Flags& flags) {
  const uint64_t process_start = obs::NowNs();
  const WorkloadSpec* spec = FindWorkload(flags.workload, flags.smoke);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 flags.workload.c_str());
    return 2;
  }
  if (!util::CreateDirectories(flags.work_dir).ok()) {
    std::fprintf(stderr, "e2e_bench: cannot create %s\n",
                 flags.work_dir.c_str());
    return 2;
  }
  util::Result<BenchmarkNames> names = LoadBenchmarkNames(flags.benchmark_json);
  if (!names.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", names.status().ToString().c_str());
    return 2;
  }
  std::string fs_type;
  Value machine = MachineRecord(flags, &fs_type);
  std::printf("# machine %s\n", machine.Dump().c_str());
  if (!flags.smoke) {
    const std::string refusal = RefusalReason(*spec, fs_type);
    if (!refusal.empty()) {
      std::fprintf(stderr, "e2e_bench: refusing to measure: %s\n",
                   refusal.c_str());
      return 2;
    }
  }
  const bool trace = flags.trace != 0;
  SpanLog::Get().set_enabled(trace);
  std::vector<std::string> errors;

  // ---- inputs: the dataset, the seeded fleet and the reference reports.
  util::Result<std::unique_ptr<Dataset>> prepared = [&] {
    Span span("prepare_dataset", "sim");
    return PrepareDataset(spec->resources, static_cast<uint64_t>(flags.seed));
  }();
  if (!prepared.ok()) {
    std::fprintf(stderr, "e2e_bench: dataset: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Dataset> dataset = std::move(prepared).value();
  const std::vector<CampaignSpec> fleet =
      MakeFleet(*spec, static_cast<uint64_t>(flags.seed));
  util::Result<References> refs = RunReferences(*dataset, *spec);
  if (!refs.ok()) {
    std::fprintf(stderr, "e2e_bench: references: %s\n",
                 refs.status().ToString().c_str());
    return 1;
  }

  RoundContext ctx;
  ctx.spec = spec;
  ctx.dataset = dataset.get();
  ctx.references = &refs.value();
  ctx.work_dir = flags.work_dir;
  ctx.deadline_ns =
      process_start + static_cast<uint64_t>(kDeadlineSeconds * 1e9);
  ctx.read_journals = trace;
  int round = 0;

  // ---- warm-up at ~1/20 scale on its own manager, discarded
  SpanLog::Get().set_enabled(false);
  {
    Tally warm;
    const size_t n = std::max<size_t>(
        std::min<size_t>(3, fleet.size()), (fleet.size() + 19) / 20);
    RunRound(ctx, std::span<const CampaignSpec>(fleet.data(), n), round++,
             /*recover=*/true, &warm);
    for (std::string& e : warm.errors) errors.push_back("warm-up: " + e);
  }

  // ---- the measured phase, tracing off: rounds until --seconds have
  // passed and the 200 makespans a p95 needs (10 beyond it) are in. Each
  // round starts by preparing the dataset again, so set-up is sampled
  // across the whole phase like the rounds are, not in one burst that a
  // short slow spell of the machine would skew. Recovery costs about as
  // much as the round it replays, so only the first few rounds are
  // recovered.
  constexpr size_t kRecoveredRounds = 3;
  Tally plain;
  const uint64_t measure_start = obs::NowNs();
  for (;;) {
    TimePreparation(*spec, flags.seed, *dataset, &plain);
    RunRound(ctx, fleet, round++, plain.recover_s.size() < kRecoveredRounds,
             &plain);
    if (!plain.errors.empty() || flags.smoke) break;
    const double measured =
        static_cast<double>(obs::NowNs() - measure_start) / 1e9;
    if (measured >= flags.seconds && plain.makespan_s.size() >= 200) break;
    if (static_cast<double>(obs::NowNs() - process_start) / 1e9 >
        kMaxMeasureSeconds) {
      break;
    }
  }
  MetricTable table;
  AddEndToEnd(*spec, plain, &table);

  // ---- traced run: per-layer numbers from the phase above (the obs
  // instruments are always on), then a few rounds with the benchmark's
  // spans and the program's trace ring on — few, because the ring keeps
  // every event in memory — and the isolation passes.
  Tally traced;
  if (trace) {
    AddPerLayer(*spec, plain, refs.value(), &table, &errors);
    SpanLog::Get().set_enabled(true);
    obs::Trace::Enable(kTraceRingCapacity);
    for (int i = 0; i < kTracedRounds && traced.errors.empty(); ++i) {
      RunRound(ctx, fleet, round++, /*recover=*/false, &traced);
    }
    obs::Trace::Disable();
    SpanLog::Get().set_enabled(false);
    const std::string ring_export = obs::Trace::ExportChromeJson();
    table.Add("bench.tracing_overhead_frac",
              1.0 - Ratio(Ratio(static_cast<double>(traced.completions),
                                traced.wall_s),
                          Ratio(static_cast<double>(plain.completions),
                                plain.wall_s)),
              "frac");
    // Where a completion's time went: each layer's self time in the
    // traced rounds, per applied completion.
    const std::vector<SpanRecord> spans = SpanLog::Get().Collect();
    const std::map<std::string, double> self = SelfSecondsByLayer(
        spans, ParseRingExport(ring_export), traced.windows);
    auto self_us = [&](const char* layer) {
      const auto it = self.find(layer);
      return it == self.end()
                 ? 0.0
                 : Ratio(it->second * 1e6,
                         static_cast<double>(traced.completions));
    };
    table.Add("service.self_us_per_completion", self_us("service"), "us");
    if (spec->drive != Drive::kInline) {
      table.Add("http.self_us_per_completion", self_us("http"), "us");
    }
    if (spec->journaled) {
      table.Add("persist.self_us_per_completion", self_us("persist"), "us");
    }
    if (obs::Trace::GetStats().dropped > 0) {
      errors.push_back("the trace ring dropped events; self times are short");
    }
    if (!flags.trace_out.empty()) {
      util::Status written =
          WriteChromeTrace(flags.trace_out, spans, ring_export);
      if (!written.ok()) errors.push_back(written.ToString());
    }
    RunIsolation(ctx, &table, &errors);
  }
  for (const Tally* t : {&plain, &traced}) {
    for (const std::string& e : t->errors) errors.push_back(e);
  }
  const int64_t attempted = plain.attempted + traced.attempted;
  const int64_t failed = plain.failed + traced.failed;
  table.Add("rss_peak_mb", PeakRssMb(), "MB");
  table.Add("ops_failed_frac",
            Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            "frac");
  if (failed > 0) {
    errors.push_back(std::to_string(failed) + " operations failed");
  }
  PrintMetrics(spec->name, table);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", spec->name.c_str(), e.c_str());
  }
  const bool correct = errors.empty();

  // ---- the full document, then the one-line result
  if (!flags.out.empty()) {
    Value doc = Value::Object();
    doc.Set("workload", Value::Str(spec->name));
    doc.Set("seed", Value::Int(flags.seed));
    doc.Set("seconds", Value::Number(flags.seconds));
    doc.Set("trace", Value::Bool(trace));
    doc.Set("smoke", Value::Bool(flags.smoke));
    doc.Set("machine", std::move(machine));
    Value sizes = Value::Object();
    sizes.Set("resources", Value::Int(spec->resources));
    sizes.Set("prepared_resources",
              Value::Int(static_cast<int64_t>(dataset->prepared.size())));
    sizes.Set("campaigns", Value::Int(spec->campaigns));
    sizes.Set("small_budget", Value::Int(spec->small_budget));
    sizes.Set("large_budget", Value::Int(spec->small_budget * kLargeFactor));
    sizes.Set("batch_size", Value::Int(kBatchSize));
    sizes.Set("compact_journal_bytes", Value::Int(spec->compact_journal_bytes));
    sizes.Set("rounds", Value::Int(plain.rounds));
    sizes.Set("traced_rounds", Value::Int(traced.rounds));
    sizes.Set("timed_s", Value::Number(plain.wall_s));
    auto list = [](const std::vector<double>& values) {
      Value out = Value::Array();
      for (double v : values) out.Append(Value::Number(v));
      return out;
    };
    sizes.Set("prepare_s", list(plain.prepare_s));
    sizes.Set("construct_s", list(plain.construct_s));
    sizes.Set("round_wall_s", list(plain.round_wall_s));
    sizes.Set("round_completions", list(plain.round_completions));
    int64_t future = 0;
    for (const core::PostSequence& f : dataset->prepared.future_posts) {
      future += static_cast<int64_t>(f.size());
    }
    sizes.Set("future_posts", Value::Int(future));
    doc.Set("sizes", std::move(sizes));
    doc.Set("correct", Value::Bool(correct));
    doc.Set("attempted", Value::Int(attempted));
    doc.Set("failed", Value::Int(failed));
    doc.Set("errors", ErrorsJson(errors));
    doc.Set("metrics", MetricsJson(table));
    std::ofstream out(flags.out);
    out << doc.Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", flags.out.c_str());
      return 1;
    }
  }
  Value result = Value::Object();
  Value selected = Value::Object();
  for (const auto& [name, unit] :
       trace ? names.value().per_layer : names.value().end_to_end) {
    const Metric* m = table.Find(name);
    if (m == nullptr || m->unit != unit) {
      std::fprintf(stderr,
                   "e2e_bench: BENCHMARK.json names %s [%s]; this workload "
                   "reports it %s%s\n",
                   name.c_str(), unit.c_str(),
                   m == nullptr ? "nowhere" : "in ",
                   m == nullptr ? "" : m->unit.c_str());
      return 3;
    }
    Value v = Value::Object();
    v.Set("value", Value::Number(m->value));
    v.Set("unit", Value::Str(m->unit));
    selected.Set(name, std::move(v));
  }
  result.Set("correct", Value::Bool(correct));
  result.Set("attempted", Value::Int(std::max<int64_t>(1, attempted)));
  result.Set("failed", Value::Int(failed));
  result.Set("metrics", std::move(selected));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace incentag

int main(int argc, char** argv) {
  using namespace incentag;
  e2e::Flags flags;
  util::FlagSet set;
  set.AddString("workload", &flags.workload, "workload to run");
  set.AddInt("seed", &flags.seed, "input seed (dataset, fleet, clients)");
  set.AddDouble("seconds", &flags.seconds, "how long the measured rounds run");
  set.AddInt("trace", &flags.trace,
             "1 = traced run: per-layer metrics, spans, Chrome trace");
  set.AddBool("smoke", &flags.smoke, "tiny sizes, one round, no refusals");
  set.AddString("work_dir", &flags.work_dir, "journal and scratch directory");
  set.AddString("out", &flags.out, "JSON document path");
  set.AddString("trace_out", &flags.trace_out, "Chrome trace path");
  set.AddString("benchmark_json", &flags.benchmark_json,
                "BENCHMARK.json naming the reported metrics");
  set.AddString("git_sha", &flags.git_sha, "commit recorded in the output");
  util::Status parsed = set.Parse(argc, argv);
  if (!parsed.ok() || flags.work_dir.empty() ||
      flags.benchmark_json.empty()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 set.Usage().c_str());
    return 2;
  }
  util::SetLogLevel(util::LogLevel::kWarning);
  return e2e::Run(flags);
}
