#include "src/service/campaign_manager.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <limits>
#include <mutex>
#include <string_view>
#include <utility>

#include "src/core/campaign_runtime.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/apply_order.h"
#include "src/service/fleet_health.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"
#include "src/util/stopwatch.h"
#include "src/util/text.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace service {

namespace {

util::Status ValidateConfig(const CampaignConfig& config) {
  if (config.initial_posts == nullptr || config.references == nullptr) {
    return util::Status::InvalidArgument(
        "campaign needs initial posts and references");
  }
  if (config.initial_posts->size() != config.references->size()) {
    return util::Status::InvalidArgument(
        "initial posts / references size mismatch");
  }
  if (config.strategy == nullptr || config.stream == nullptr) {
    return util::Status::InvalidArgument(
        "campaign needs a strategy and a post stream");
  }
  return core::ValidateOmega(config.options.omega);
}

std::string JournalPath(const std::string& dir, CampaignId id) {
  return dir + "/campaign-" + std::to_string(id) + ".journal";
}

// Recovering id k moves the next Submit to k + 1, so an id at or near
// UINT64_MAX would wrap later Submits to 0, the scheduler's "queue
// empty" value: such a campaign would never step. A journal name past
// this id is taken as no id.
constexpr CampaignId kMaxJournalId = std::numeric_limits<int64_t>::max();

// Inverse of JournalPath on the basename; 0 (take a fresh id) when the
// name does not match "campaign-<digits>.journal" or the digits pass
// kMaxJournalId.
CampaignId ParseJournalId(const std::string& path) {
  std::string_view base(path);
  base.remove_prefix(base.find_last_of('/') + 1);  // npos + 1 == 0
  constexpr std::string_view kPrefix = "campaign-";
  constexpr std::string_view kSuffix = ".journal";
  if (!base.starts_with(kPrefix) || !base.ends_with(kSuffix)) return 0;
  const char* first = base.data() + kPrefix.size();
  const char* last = base.data() + base.size() - kSuffix.size();
  CampaignId id = 0;
  const auto [end, ec] = std::from_chars(first, last, id);
  return ec == std::errc() && end == last && id <= kMaxJournalId ? id : 0;
}

// Older builds could leave a fleet commit log in the journal directory,
// holding completions acknowledged as durable whose bytes only the log
// carried. Nothing applies such a log any more, so a non-empty one
// refuses the directory rather than silently losing them. The
// zero-length log a clean shutdown of those builds leaves is removed.
util::Status RejectLegacyCommitLog(const std::string& dir) {
  const std::string path = dir + "/fleet-commit.log";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return util::Status::OK();
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return util::Status::IoError("stat " + path + ": " + ec.message());
  }
  if (size > 0) {
    return util::Status::FailedPrecondition(
        path + " is a non-empty fleet commit log from an older build; it "
        "may hold acknowledged completions this build cannot apply, so "
        "recover the directory with the build that wrote it first");
  }
  INCENTAG_RETURN_IF_ERROR(util::RemoveFile(path));
  return util::SyncDir(dir);
}

constexpr char kSourceClosedError[] = "completion source closed";

// Why a live campaign is to stop, strongest last. A request is only ever
// raised, never lowered, and takes effect at the next step boundary.
// Only a user cancel is journaled: a campaign Shutdown interrupts must
// resume on Recover, and a quarantined one's fd takes no more writes.
enum class StopRequest : uint8_t { kNone, kShutdown, kUserCancel, kQuarantine };

constexpr std::chrono::milliseconds kNoDeadline =
    std::chrono::milliseconds::max();

// A transient journal-append failure (ENOSPC mid-episode) keeps the
// campaign running with the records retained in the writer's buffer —
// the sink's retry ladder will land them — up to this many buffered
// bytes. Past the cap the episode has outlived plausible recovery and
// the campaign quarantines instead of growing the heap unboundedly.
constexpr int64_t kMaxBufferedJournalBytes = 4 << 20;

// Degraded mode compacts aggressively: a journal this many bytes past
// its last snapshot rewrites even though the normal triggers have not
// fired, reclaiming disk while ENOSPC is the fleet's binding constraint.
constexpr int64_t kDegradedCompactBytes = 64 << 10;

// Fleet-wide service instruments (src/obs/README.md). Grouped in one
// lazily-built struct so each call site pays a single static-init guard.
struct ServiceMetrics {
  obs::Histogram* queue_wait_critical;
  obs::Histogram* queue_wait_background;
  obs::Histogram* quantum_seconds;
  obs::Histogram* completion_batch;
  obs::Counter* reorder_bypass;
  obs::Counter* reorder_heap;
  obs::Gauge* inbox_depth;
  obs::Counter* quarantines;
  obs::Counter* trajectory_tables;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      ServiceMetrics m;
      m.queue_wait_critical = registry.GetHistogram(
          "incentag_scheduler_queue_wait_seconds",
          "Ready-queue wait from enqueue to pop, per scheduling class",
          obs::LatencyBoundsSeconds(), "class=\"critical\"");
      m.queue_wait_background = registry.GetHistogram(
          "incentag_scheduler_queue_wait_seconds",
          "Ready-queue wait from enqueue to pop, per scheduling class",
          obs::LatencyBoundsSeconds(), "class=\"background\"");
      m.quantum_seconds = registry.GetHistogram(
          "incentag_scheduler_quantum_seconds",
          "Wall time of one campaign scheduling quantum (Step)",
          obs::LatencyBoundsSeconds());
      m.completion_batch = registry.GetHistogram(
          "incentag_service_completion_batch_size",
          "In-order completions applied per batched ApplyRun",
          obs::BatchSizeBounds());
      m.reorder_bypass = registry.GetCounter(
          "incentag_service_reorder_bypass_total",
          "Completions applied via the in-order fast path");
      m.reorder_heap = registry.GetCounter(
          "incentag_service_reorder_heap_total",
          "Completions that took the reorder heap");
      m.inbox_depth = registry.GetGauge(
          "incentag_service_inbox_depth",
          "Completions delivered but not yet drained by a stepper");
      m.quarantines = registry.GetCounter(
          "incentag_service_quarantines_total",
          "Campaigns frozen after their journal fd went permanently sick");
      m.trajectory_tables = registry.GetCounter(
          "incentag_service_trajectory_tables_total",
          "Trajectory tables created for the datasets campaigns run on");
      return m;
    }();
    return metrics;
  }
};

// Recover's replays in flight on the pool. The tasks share it, so the
// last one to finish may outlive Recover's wait.
struct ReplayWindow {
  util::Mutex mu;
  util::CondVar done;
  int in_flight GUARDED_BY(mu) = 0;

  // Takes a slot unless `limit` replays are already in flight.
  bool TryAdd(int limit) {
    util::MutexLock lock(&mu);
    if (in_flight >= limit) return false;
    ++in_flight;
    return true;
  }
  void Finish() {
    util::MutexLock lock(&mu);
    --in_flight;
    done.NotifyAll();
  }
  void WaitIdle() {
    util::MutexLock lock(&mu);
    while (in_flight > 0) done.Wait(&mu);
  }
};

}  // namespace

// All mutable campaign state. Ownership of the non-const parts is split
// three ways, so a step never contends with anything but its own inbox:
//   * stepper-owned: runtime, apply order, journal appends — touched only
//     by the thread holding the `scheduled` token;
//   * inbox: completed seqs from tagger threads, guarded by inbox_mu;
//   * published: the status snapshot + terminal report, guarded by
//     status_mu, written at step boundaries and read by pollers/waiters.
struct CampaignManager::Campaign : Runnable {
  Campaign(CampaignManager* manager, CampaignId id_in,
           CampaignConfig config_in)
      : Runnable(id_in),
        config(std::move(config_in)),
        strategy_name(config.strategy->name()),
        runtime(config.options, config.initial_posts, config.references),
        completion_fn([manager, this](std::span<const TaskHandle> tasks) {
          manager->OnCompletionBatch(this, tasks);
        }) {}

  CampaignConfig config;
  // Cached at submit time: pollers must not call name() on a strategy a
  // stepper thread is concurrently mutating.
  const std::string strategy_name;
  // Scheduling class, clamped/validated once (pollers read these while
  // steppers run, and the scheduler got the same values at Register).
  const int32_t priority =
      config.options.priority < 1 ? 1 : config.options.priority;
  const double deadline_seconds =
      config.options.deadline_seconds > 0.0 ? config.options.deadline_seconds
                                            : 0.0;

  // ---- stepper-owned (guarded by the `scheduled` token) ----
  core::CampaignRuntime runtime;
  bool begun = false;
  ApplyOrder order;
  std::vector<core::ResourceId> batch;
  std::vector<TaskHandle> tasks;
  // Step-scratch buffers, reused across quanta so the steady-state step
  // path performs no allocations: the inbox drain target, the in-order
  // run handed to ApplyCompletionBatch, and the completion records of
  // that run for the journal's batched append.
  std::vector<uint64_t> drained;
  std::vector<core::ResourceId> apply_run;
  std::vector<persist::CompletionRecord> journal_batch;
  // Built once and reused for every SubmitTasks call, so the assignment
  // path does not allocate a fresh std::function per drawn batch.
  CompletionSource::CompletionFn completion_fn;
  // Write-ahead journal; null when the manager journals nothing.
  std::unique_ptr<persist::JournalWriter> journal;
  // The journaled deterministic inputs, kept so a compaction can rewrite
  // the journal's submit record without re-deriving it.
  persist::SubmitRecord submit_record;
  // Journal size when the last compaction rewrite finished; the
  // compact_journal_bytes policy measures from here. Atomic because the
  // compactor thread's done-callback stores it while the stepper reads.
  std::atomic<int64_t> bytes_at_last_compact{0};
  // Scheduler quanta this campaign has run (each Step dispatch is one).
  std::atomic<int64_t> quanta_run{0};
  // Ticks from Submit; measures scheduler queueing until the first step.
  util::Stopwatch submitted;
  // Restarted by the first step, so elapsed_seconds measures campaign
  // work, not time spent queued behind other campaigns (ISSUE 2).
  util::Stopwatch started;
  double queue_delay_s = 0.0;

  // ---- scheduling token ----
  // True while a step is scheduled or running; whoever flips false->true
  // owns the right (and duty) to submit the next step.
  std::atomic<bool> scheduled{false};
  // NowNs() when the campaign last entered the ready queue; exchanged to
  // 0 by the popping step, which observes the delta into the per-class
  // queue-wait histogram. 0 = not currently stamped.
  std::atomic<uint64_t> enqueued_ns{0};
  // Set by an explicit Compact() call; consumed at a step boundary.
  std::atomic<bool> compact_requested{false};
  // True while a compaction job for this campaign is queued or running.
  // At most one is ever in flight: a second job's tail offset would
  // refer to the pre-rewrite file layout and corrupt the journal.
  // Finalize waits for it to clear before it closes the journal.
  std::atomic<bool> compact_in_flight{false};

  // ---- lifecycle ----
  // Read lock-free anywhere; written only by Transition.
  std::atomic<CampaignState> state{CampaignState::kRunning};
  // Raised by Shutdown, Cancel and OnWriterSick; see StopRequest. A
  // quarantine's error travels in quarantine_error under status_mu.
  std::atomic<StopRequest> stop{StopRequest::kNone};

  // ---- completion inbox (MPSC: taggers produce, the stepper drains) ----
  // Completion spans land here under one lock per span; the stepper
  // swap-drains into `drained`, so the two vectors ping-pong their
  // capacity and neither side reallocates in steady state.
  util::Mutex inbox_mu;
  std::vector<uint64_t> inbox GUARDED_BY(inbox_mu);

  // ---- published snapshot + terminal state ----
  mutable util::Mutex status_mu;
  util::CondVar terminal_cv;
  core::AllocationMetrics metrics GUARDED_BY(status_mu);
  int64_t budget_spent GUARDED_BY(status_mu) = 0;
  int64_t tasks_completed GUARDED_BY(status_mu) = 0;
  int64_t tasks_in_flight GUARDED_BY(status_mu) = 0;
  int64_t records_replayed GUARDED_BY(status_mu) = 0;
  size_t checkpoints_recorded GUARDED_BY(status_mu) = 0;
  double queue_delay_seconds GUARDED_BY(status_mu) = 0.0;
  double elapsed_seconds GUARDED_BY(status_mu) = 0.0;
  // Deadline slack frozen at the moment the campaign went terminal;
  // while it runs, Status computes the live value instead.
  double final_deadline_slack_seconds GUARDED_BY(status_mu) = 0.0;
  std::string error GUARDED_BY(status_mu);
  std::string quarantine_error GUARDED_BY(status_mu);
  core::RunReport report GUARDED_BY(status_mu);

  double DeadlineSlackNow() const {
    return deadline_seconds > 0.0
               ? deadline_seconds - submitted.ElapsedSeconds()
               : 0.0;
  }

  // The one writer of `state`, checking the edge against the lifecycle
  // table. Only the holder of the `scheduled` token calls it, so nothing
  // moves the state between the check and the store; status_mu orders
  // the store with the fields waiters read beside it.
  void Transition(CampaignState to) {
    util::MutexLock lock(&status_mu);
    INCENTAG_CHECK(IsLegalTransition(state.load(), to));
    state.store(to);
  }

  // Raises `stop` to at least `request`; returns the value it held.
  StopRequest RaiseStop(StopRequest request) {
    StopRequest current = stop.load();
    while (current < request && !stop.compare_exchange_weak(current, request)) {
    }
    return current;
  }
};

CampaignManager::CampaignManager(ManagerOptions options)
    : options_(options) {
  if (options_.tasks_per_step <= 0) options_.tasks_per_step = 1;
  scheduler_ =
      std::make_unique<Scheduler>(options_.scheduler, options_.tasks_per_step);
  // Register the service instruments now, so /metrics lists them (at
  // zero) before the first campaign steps.
  ServiceMetrics::Get();
  if (options_.completions != nullptr && !options_.deterministic) {
    source_ = options_.completions;
  } else {
    inline_source_ = std::make_unique<InlineCompletionSource>();
    source_ = inline_source_.get();
  }
  if (!options_.journal_dir.empty()) {
    // Best effort here; a failure resurfaces as an open error at Submit.
    util::CreateDirectories(options_.journal_dir);
    // Checked even when the caller never calls Recover(): a Submit must
    // not start journaling next to data this build cannot read.
    journal_dir_status_ = RejectLegacyCommitLog(options_.journal_dir);
    EnsureJournalWorkers();
  }
  if (!options_.deterministic) {
    pool_ = std::make_unique<util::ThreadPool>(
        options_.num_threads > 0 ? options_.num_threads
                                 : util::DefaultThreadCount());
  }
  if (options_.health != nullptr) {
    // Claim the exit edge: parked campaigns resume the moment storage
    // recovers instead of waiting for their next completion to poke
    // them. The hook is dropped again in Shutdown.
    options_.health->set_on_exit([this] { ResumeParked(); });
  }
}

// Spins up the journal's background helpers — the fsync batcher, and
// (outside deterministic mode, which compacts inline) the compactor.
// Called from the constructor when journal_dir is set and lazily from
// Recover, which journals recovered campaigns even when new submits are
// unjournaled; both call sites are single-threaded.
void CampaignManager::EnsureJournalWorkers() {
  if (sink_ == nullptr) {
    // The sink's own coalescing window and retry ladder apply.
    persist::JournalSinkOptions sink_options;
    if (options_.health != nullptr) {
      FleetHealth* health = options_.health;
      sink_options.on_storage_error = [health](const util::Status& status) {
        health->ReportStorageError(status);
      };
      sink_options.on_storage_ok = [health] { health->ReportStorageOk(); };
    }
    sink_options.on_writer_sick = [this](persist::JournalWriter* writer,
                                         const util::Status& status) {
      OnWriterSick(writer, status);
    };
    sink_ = std::make_unique<persist::JournalSink>(sink_options);
  }
  if (compactor_ == nullptr && !options_.deterministic) {
    compactor_ = std::make_unique<persist::Compactor>();
  }
}

std::shared_ptr<const core::InitialState> CampaignManager::InitialStateFor(
    const CampaignConfig& config) {
  util::MutexLock lock(&initial_states_mu_);
  std::shared_ptr<const core::InitialState> found;
  std::erase_if(initial_states_,
                [&](const std::weak_ptr<const core::InitialState>& entry) {
                  std::shared_ptr<const core::InitialState> state =
                      entry.lock();
                  if (state != nullptr &&
                      state->BuiltFor(config.initial_posts,
                                      &config.stream->store(),
                                      config.references,
                                      config.options.omega)) {
                    found = std::move(state);
                  }
                  return entry.expired();
                });
  if (found == nullptr) {
    found = std::make_shared<const core::InitialState>(
        config.initial_posts, &config.stream->store(), config.references,
        config.options.omega);
    initial_states_.push_back(found);
    ServiceMetrics::Get().trajectory_tables->Increment();
  }
  return found;
}

size_t CampaignManager::num_initial_states() const {
  util::MutexLock lock(&initial_states_mu_);
  return static_cast<size_t>(std::count_if(
      initial_states_.begin(), initial_states_.end(),
      [](const std::weak_ptr<const core::InitialState>& entry) {
        return !entry.expired();
      }));
}

CampaignManager::~CampaignManager() { Shutdown(); }

int CampaignManager::num_threads() const {
  return pool_ == nullptr ? 0 : pool_->num_threads();
}

size_t CampaignManager::num_campaigns() const {
  return AllCampaigns().size();
}

CampaignManager::Campaign* CampaignManager::Find(CampaignId id) const {
  util::MutexLock lock(&registry_mu_);
  auto it = campaigns_.find(id);
  return it == campaigns_.end() ? nullptr : it->second.get();
}

std::vector<CampaignManager::Campaign*> CampaignManager::AllCampaigns()
    const {
  std::vector<Campaign*> out;
  util::MutexLock lock(&registry_mu_);
  out.reserve(campaigns_.size());
  for (const auto& [id, campaign] : campaigns_) out.push_back(campaign.get());
  return out;
}

util::Status CampaignManager::TryRegister(
    CampaignId id, std::unique_ptr<Campaign> campaign) {
  util::MutexLock lock(&registry_mu_);
  // Checked under the registry lock so Submit and Shutdown's sweep cannot
  // miss each other: Shutdown sets the flag before taking the lock, so
  // either this read sees it (reject) or the sweep's later snapshot of
  // the registry sees the campaign (cancel it).
  if (shutdown_.load()) {
    return util::Status::FailedPrecondition("manager is shut down");
  }
  campaigns_.emplace(id, std::move(campaign));
  return util::Status::OK();
}

util::Result<CampaignId> CampaignManager::Submit(CampaignConfig config) {
  INCENTAG_RETURN_IF_ERROR(ValidateConfig(config));
  INCENTAG_RETURN_IF_ERROR(journal_dir_status_);
  const CampaignId id = next_id_.fetch_add(1);
  auto campaign = std::make_unique<Campaign>(this, id, std::move(config));
  Campaign* raw = campaign.get();

  if (!options_.journal_dir.empty()) {
    // The SubmitRecord must be durable before any work happens: a crash
    // after this point recovers the campaign, a crash before it means
    // the Submit call never happened (the torn file is skipped).
    const std::string path = JournalPath(options_.journal_dir, id);
    auto writer = persist::JournalWriter::Open(path, /*truncate_to=*/0);
    if (!writer.ok()) return writer.status();
    raw->submit_record.name = raw->config.name;
    raw->submit_record.strategy_name = raw->strategy_name;
    raw->submit_record.seed = raw->config.seed;
    raw->submit_record.options = raw->config.options;
    raw->journal = std::move(writer).value();
    util::Status journaled = raw->journal->AppendSubmit(raw->submit_record);
    if (journaled.ok()) journaled = raw->journal->Sync();
    // The file's fsync covers its data; the directory entry of the newly
    // created file needs its own fsync to survive power loss.
    if (journaled.ok()) journaled = util::SyncDir(options_.journal_dir);
    if (!journaled.ok()) {
      raw->journal.reset();
      util::RemoveFile(path);
      return journaled;
    }
  }

  util::Status registered = TryRegister(id, std::move(campaign));
  if (!registered.ok()) {
    // `raw` is destroyed; drop its journal so a later Recover does not
    // resurrect a campaign whose Submit returned an error.
    if (!options_.journal_dir.empty()) {
      util::RemoveFile(JournalPath(options_.journal_dir, id));
    }
    return registered;
  }
  scheduler_->Register(id,
                       ScheduleParams{raw->priority, raw->deadline_seconds});
  ScheduleStep(raw);
  DrainReadyQueue();
  return id;
}

// Applies the completions collected in c->apply_run to the runtime and
// journals them as one batched append. Runs on the stepper. Returns
// false when the journal rejected the batch — the campaign is then
// finalized kFailed (the runtime did apply the run, but its journaled
// prefix is still a prefix of the applied state, so recovery stays
// consistent).
bool CampaignManager::ApplyRun(Campaign* c) {
  if (c->apply_run.empty()) return true;
  ServiceMetrics::Get().completion_batch->Observe(
      static_cast<double>(c->apply_run.size()));
  c->runtime.ApplyCompletionBatch(c->apply_run.data(), c->apply_run.size());
  if (c->journal != nullptr) {
    c->journal_batch.clear();
    // TakeRun already advanced the order past the run.
    uint64_t seq = c->order.next_apply_seq() - c->apply_run.size();
    for (core::ResourceId resource : c->apply_run) {
      c->journal_batch.push_back(persist::CompletionRecord{seq++, resource});
    }
    obs::TraceSpan append_span("journal_append");
    append_span.set_arg(static_cast<int64_t>(c->journal_batch.size()));
    util::Status journaled = c->journal->AppendCompletionBatch(
        c->journal_batch.data(), c->journal_batch.size());
    if (!journaled.ok()) {
      const util::IoErrorClass io_class = util::ClassifyIoError(journaled);
      if (io_class == util::IoErrorClass::kNotIoError) {
        // Encoding/precondition bugs, not storage: fail as before.
        Finalize(c, CampaignState::kFailed, journaled.ToString());
        return false;
      }
      if (options_.health != nullptr) {
        options_.health->ReportStorageError(journaled);
      }
      // A failed AppendGather retains the unwritten remainder in the
      // writer's buffer, so the batch is fully part of the journal's
      // logical state — the campaign can keep running and the sink's
      // next flush/sync retries the bytes. Bounded: past the buffer cap
      // (or on a permanent error) the campaign quarantines with its
      // durable prefix intact.
      if (io_class == util::IoErrorClass::kTransient &&
          c->journal->buffered_bytes() <= kMaxBufferedJournalBytes) {
        FlushJournal(c);
        return true;
      }
      Finalize(c, CampaignState::kQuarantined,
               "journal append failed: " + journaled.ToString());
      return false;
    }
  }
  return true;
}

void CampaignManager::ScheduleStep(Campaign* c) {
  if (!c->scheduled.exchange(true)) EnqueueDispatch(c);
}

// Marks the campaign runnable and pairs the ready-queue entry with one
// generic dispatch task on the pool. Called with the campaign's
// scheduled token held; the entry is popped by whichever dispatch the
// scheduler ranks it first for. Deterministic mode has no pool: the
// thread driving the campaign pops the entry in DrainReadyQueue.
void CampaignManager::EnqueueDispatch(Campaign* c) {
  c->enqueued_ns.store(obs::NowNs(), std::memory_order_relaxed);
  scheduler_->Enqueue(c);
  if (pool_ != nullptr && !pool_->Submit([this] { DispatchStep(); })) {
    // Pool already shut down (late completion during teardown). Submit
    // only fails after Shutdown's sweep has finalized every campaign, so
    // the orphaned ready-queue entry can never be popped into a live
    // step; drop the token so nothing looks permanently scheduled.
    c->scheduled.store(false);
  }
}

// One worker trip through the scheduler: step whichever runnable
// campaign the policy ranks first right now (which need not be the one
// whose enqueue created this task). False when the queue was empty.
bool CampaignManager::DispatchStep() {
  // Null when a concurrent Unregister removed this dispatch's entry.
  Runnable* next = scheduler_->PopNext();
  if (next == nullptr) return false;
  Step(static_cast<Campaign*>(next));
  return true;
}

// Deterministic mode's executor: with the inline source a campaign stays
// runnable until it is terminal. A no-op when a pool does the stepping.
void CampaignManager::DrainReadyQueue() {
  if (pool_ != nullptr) return;
  while (DispatchStep()) {
  }
}

// A span of finished tasks from the completion source: one inbox lock
// and one (usually no-op) schedule for the whole burst, however many
// tasks it carries.
void CampaignManager::OnCompletionBatch(Campaign* c,
                                        std::span<const TaskHandle> tasks) {
  {
    util::MutexLock lock(&c->inbox_mu);
    // A terminal campaign drains nothing more. Checked under the lock
    // Finalize empties the inbox under, so no push can land after that
    // and be kept until the manager dies.
    if (IsTerminal(c->state.load())) return;
    if (c->inbox.capacity() == 0) {
      // First push: size for a whole assignment batch up front instead
      // of growing through the doubling ladder (ISSUE 5 satellite).
      // Clamped: batch_size is caller/journal-supplied and unvalidated,
      // and an absurd value must not turn into a giant allocation on
      // the completion path — past the clamp the vector just grows
      // normally.
      c->inbox.reserve(static_cast<size_t>(
          std::clamp<int64_t>(c->config.options.batch_size, 64, 4096)));
    }
    for (const TaskHandle& task : tasks) c->inbox.push_back(task.seq);
    // Under the lock, so Finalize's drain retires exactly what landed.
    ServiceMetrics::Get().inbox_depth->Add(
        static_cast<int64_t>(tasks.size()));
  }
  if (!IsTerminal(c->state.load())) ScheduleStep(c);
}

void CampaignManager::FlushJournal(Campaign* c) {
  if (c->journal == nullptr) return;
  // A journaled campaign always has the sink (EnsureJournalWorkers runs
  // before its journal opens), so the quantum path costs no syscall:
  // records sit in the writer buffer until the sink's window commit
  // flushes them as part of the fdatasync it already pays for (SyncData
  // flushes first). Durability is unchanged — buffered or flushed, a
  // record is durable only once the sink pass covering its Schedule
  // returns, and a crash in between loses a replayable tail either way.
  sink_->Schedule(c->journal.get());
}

// Runs on the stepper (token held), so the runtime, strategy, stream and
// seq counters are stable to serialize. The snapshot summarizes exactly
// the records currently in the journal — appends happen on this thread,
// in order — so the journal's current size is the tail boundary. The
// rewrite itself runs on the compactor thread; a failure there leaves
// the journal uncompacted but valid, so it is logged, not fatal. A
// campaign that finishes meanwhile waits for the rewrite in Finalize
// before it closes the journal.
void CampaignManager::MaybeCompact(Campaign* c) {
  if (c->journal == nullptr || !c->begun) return;
  // The trigger is journal bytes accumulated since the last rewrite —
  // what recovery has to replay and the rewrite has to copy.
  const int64_t bytes_since =
      c->journal->size() - c->bytes_at_last_compact.load();
  // In degraded mode disk space is the fleet's binding constraint, so
  // any journal meaningfully past its snapshot rewrites now — the
  // snapshot-based rewrite usually shrinks the file.
  const bool degraded_due =
      options_.health != nullptr && options_.health->degraded() &&
      bytes_since >= kDegradedCompactBytes;
  const bool due =
      c->compact_requested.load() || degraded_due ||
      (options_.compact_journal_bytes > 0 &&
       bytes_since >= options_.compact_journal_bytes);
  if (!due) return;
  // One rewrite at a time per campaign: the tail offset below is only
  // meaningful against the file layout the job will find. A skipped
  // round leaves compact_requested and the bytes baseline untouched, so
  // the next step boundary retries.
  if (c->compact_in_flight.exchange(true)) return;
  c->compact_requested.store(false);

  persist::CompactionJob job;
  job.writer = c->journal.get();
  job.submit = c->submit_record;
  c->order.SaveTo(&job.snapshot);
  util::Status serialized =
      c->runtime.SerializeResumableState(&job.snapshot.runtime_state);
  if (!serialized.ok()) {
    INCENTAG_LOG_ERROR("campaign %llu snapshot failed: %s",
                       static_cast<unsigned long long>(c->id),
                       serialized.ToString().c_str());
    c->compact_in_flight.store(false);
    return;
  }
  job.tail_offset = c->journal->size();
  // The campaign and manager outlive the job: Shutdown stops the
  // compactor before any campaign is destroyed.
  job.done = [this, c](const util::Status& status) {
    if (status.ok()) {
      // Re-base the bytes trigger on the rewritten file: its size is the
      // snapshot prefix plus whatever tail accumulated meanwhile, so the
      // delta to the next trigger measures fresh post-snapshot bytes.
      c->bytes_at_last_compact.store(c->journal->size());
    } else {
      INCENTAG_LOG_ERROR("campaign %llu compaction failed: %s",
                         static_cast<unsigned long long>(c->id),
                         status.ToString().c_str());
    }
    c->compact_in_flight.store(false);
    c->compact_in_flight.notify_all();  // Finalize may be waiting
  };
  if (compactor_ != nullptr) {
    compactor_->Enqueue(std::move(job));
  } else {
    // Deterministic mode compacts inline on the driving thread.
    util::Status status =
        job.writer->Compact(job.submit, job.snapshot, job.tail_offset);
    job.done(status);
  }
}

// One scheduling quantum of a campaign. Exactly one thread runs Step for
// a given campaign at a time (the `scheduled` token); all stepper-owned
// state is therefore lock-free to touch. The quantum size — how many
// completions may be applied before the campaign must go back through
// the ready queue — comes from the scheduler, so a priority policy can
// hand high-priority campaigns proportionally more work per dispatch.
void CampaignManager::Step(Campaign* c) {
  if (IsTerminal(c->state.load())) return;
  auto stop_requested = [c] { return c->stop.load() != StopRequest::kNone; };
  // Drops the token, then takes it back if `runnable` turned true in
  // between: whoever made it runnable saw the token held and left it to us.
  auto release_token = [this, c](auto runnable) {
    c->scheduled.store(false);
    if (runnable() && !c->scheduled.exchange(true)) EnqueueDispatch(c);
  };
  // Fleet degraded mode: background-class campaigns give up their turn
  // (admission pause) so the storage stack's remaining headroom serves
  // critical campaigns and compaction. Stop requests still win — a
  // parked campaign must stay cancellable. Deterministic mode never
  // parks: nothing would resume the campaign on the calling thread.
  const bool park = pool_ != nullptr && options_.health != nullptr &&
                    options_.health->degraded() && c->priority <= 1 &&
                    !stop_requested();
  if (park != (c->state.load() == CampaignState::kParked)) {
    c->Transition(park ? CampaignState::kParked : CampaignState::kRunning);
  }
  if (park) {
    // ResumeParked may sweep past before the release.
    release_token(
        [&] { return !options_.health->degraded() || stop_requested(); });
    return;
  }
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  // Queue wait: the delta from this campaign's last enqueue stamp.
  // exchange(0) so a stamp is observed exactly once even if a spurious
  // re-dispatch lands here twice.
  if (const uint64_t enqueued =
          c->enqueued_ns.exchange(0, std::memory_order_relaxed);
      enqueued != 0) {
    const uint64_t wait_ns = obs::NowNs() - enqueued;
    obs::Histogram* queue_wait = c->priority > 1
                                     ? metrics.queue_wait_critical
                                     : metrics.queue_wait_background;
    queue_wait->Observe(static_cast<double>(wait_ns) * 1e-9);
    obs::Trace::Record("queue_wait", enqueued, wait_ns,
                       static_cast<int64_t>(c->id));
  }
  obs::ScopedTimer quantum_timer(metrics.quantum_seconds);
  obs::TraceSpan quantum_span("quantum");
  quantum_span.set_arg(static_cast<int64_t>(c->id));
  const int64_t quantum = scheduler_->Quantum(c->id);
  c->quanta_run.fetch_add(1, std::memory_order_relaxed);

  int64_t applied = 0;
  for (;;) {
    // The one place stop requests take effect. Quarantine outranks a
    // cancel, which would sync through the sick fd.
    if (const StopRequest stop = c->stop.load(); stop != StopRequest::kNone) {
      std::string error;
      if (stop == StopRequest::kQuarantine) {
        util::MutexLock lock(&c->status_mu);
        error = c->quarantine_error;
      } else if (stop == StopRequest::kUserCancel && c->journal != nullptr) {
        c->journal->AppendCancel();  // so Recover does not resume the spend
      }
      // A cancel before the first step skips Begin entirely; Finalize then
      // synthesizes the report from the config.
      Finalize(c,
               stop == StopRequest::kQuarantine ? CampaignState::kQuarantined
                                                : CampaignState::kCancelled,
               std::move(error));
      return;
    }
    if (!c->begun) {
      c->queue_delay_s = c->submitted.ElapsedSeconds();
      c->started.Restart();
      util::Status status =
          c->runtime.Begin(c->config.strategy.get(), c->config.stream.get(),
                           InitialStateFor(c->config));
      if (!status.ok()) {
        Finalize(c, CampaignState::kFailed, status.ToString());
        return;
      }
      c->begun = true;
    }

    // Drain the inbox into the reusable scratch buffer (one lock, no
    // allocation: the swap ping-pongs the warmed-up capacities), then
    // collect the in-order run to apply.
    c->drained.clear();
    {
      util::MutexLock lock(&c->inbox_mu);
      c->drained.swap(c->inbox);
    }
    if (!c->drained.empty()) {
      metrics.inbox_depth->Add(-static_cast<int64_t>(c->drained.size()));
    }
    const ApplyOrder::RunCounts counts = c->order.TakeRun(
        c->drained, static_cast<size_t>(quantum - applied), &c->apply_run);
    if (counts.bypassed > 0) {
      metrics.reorder_bypass->Add(static_cast<int64_t>(counts.bypassed));
    }
    if (counts.reordered > 0) {
      metrics.reorder_heap->Add(static_cast<int64_t>(counts.reordered));
    }
    applied += static_cast<int64_t>(c->apply_run.size());
    // Vectorized apply + one batched journal append for the whole run.
    if (!ApplyRun(c)) return;
    MaybeCompact(c);

    if (c->runtime.done() && c->order.in_flight() == 0) {
      Finalize(c, CampaignState::kDone, "");
      return;
    }

    // Assignment phase: a new batch is drawn only once the previous one
    // is fully applied, mirroring the synchronous engine's semantics.
    if (applied < quantum && !c->runtime.done() &&
        c->order.in_flight() == 0) {
      util::Status status = c->runtime.DrawBatch(&c->batch);
      if (!status.ok()) {
        Finalize(c, CampaignState::kFailed, status.ToString());
        return;
      }
      if (c->batch.empty()) continue;  // stopped early; loop finalizes
      c->order.Assign(c->id, c->batch, &c->tasks);
      PublishStatus(c);
      // May complete some tasks synchronously (inline source): their
      // completion spans land in the inbox and the next loop iteration
      // applies them. The token stays with us, so re-schedule attempts
      // by those callbacks are cheap no-ops.
      if (!source_->SubmitTasks(c->tasks, c->completion_fn)) {
        // The source dropped part of the batch (it was stopped): those
        // completions can never arrive, so fail fast instead of leaving
        // the campaign kRunning forever (ISSUE 2).
        Finalize(c, CampaignState::kFailed, kSourceClosedError);
        return;
      }
      continue;
    }

    PublishStatus(c);
    FlushJournal(c);
    if (applied >= quantum) {
      // Quantum exhausted: yield the worker and go back through the
      // scheduler's ready queue so other campaigns run, but keep the
      // token — we know there is more to do right now.
      EnqueueDispatch(c);
    } else {
      // Waiting on completions; one may race in before the release.
      release_token([c, &stop_requested] {
        util::MutexLock lock(&c->inbox_mu);
        return !c->inbox.empty() || stop_requested();
      });
    }
    return;
  }
}

void CampaignManager::PublishStatus(Campaign* c) {
  util::MutexLock lock(&c->status_mu);
  c->metrics = c->runtime.Metrics();
  c->budget_spent = c->runtime.spent();
  c->tasks_completed = c->runtime.tasks_completed();
  c->tasks_in_flight = static_cast<int64_t>(c->order.in_flight());
  c->checkpoints_recorded = c->runtime.checkpoints_recorded();
  c->queue_delay_seconds = c->queue_delay_s;
  c->elapsed_seconds = c->started.ElapsedSeconds();
}

// The one way into a terminal state. Runs with the token held.
//   * kQuarantined: the fd is permanently sick, so the writer leaves the
//     sink and nothing syncs through it (fsyncgate). No report: Recover()
//     replays the durable prefix. Everything else is kept as it is.
//   * otherwise a compaction still queued or running on the journal is
//     waited for, so a campaign that ends mid-rewrite keeps its snapshot,
//     and the journal is synced (best effort) before waiters see the
//     state. A synced journal leaves the sink and is closed here; one
//     whose sync failed stays open and goes to the sink to retry. The
//     campaign then keeps only its status fields and report: the
//     runtime's state, the strategy, the stream, their context and the
//     step scratch are freed.
void CampaignManager::Finalize(Campaign* c, CampaignState state,
                               std::string error) {
  const bool quarantine = state == CampaignState::kQuarantined;
  if (c->journal != nullptr) {
    if (quarantine) {
      sink_->Untrack(c->journal.get());
    } else {
      // No new job can start: compactions are enqueued only by this
      // campaign's steps. Waiting before the sync also lets it retry a
      // directory fsync the rewrite left owing.
      c->compact_in_flight.wait(true);
      if (c->journal->Sync().ok()) {
        sink_->Untrack(c->journal.get());
        c->journal->Close();
      } else {
        // A journal whose sync failed stays open: its bytes may still be
        // in the page cache only, and the fd is the one handle on them.
        // The sink's retry ladder syncs it again (with any directory
        // fsync the rewrite still owes) before Shutdown returns.
        sink_->Schedule(c->journal.get());
      }
    }
  }
  // Keep the token forever: no further steps can be scheduled, and late
  // completions are dropped in OnCompletionBatch by the terminal state.
  {
    util::MutexLock lock(&c->status_mu);
    c->error = std::move(error);
    if (state == CampaignState::kDone || state == CampaignState::kCancelled) {
      if (c->begun) {
        c->report = c->runtime.Finish();
        // A cancellation that left budget unspent stopped the run early
        // in the RunReport sense, even though the strategy never
        // declined.
        if (state == CampaignState::kCancelled &&
            c->report.budget_spent < c->config.options.budget) {
          c->report.stopped_early = true;
        }
        c->metrics = c->report.final_metrics;
        c->budget_spent = c->report.budget_spent;
        c->tasks_completed = c->runtime.tasks_completed();
        c->checkpoints_recorded = c->report.checkpoints.size();
      } else {
        // Cancelled before Begin: synthesize the report from the config
        // so it is distinguishable from a real (if empty) run — the
        // default-constructed report used to leak out here (ISSUE 2).
        c->report.strategy_name = c->strategy_name;
        c->report.allocation.assign(c->config.initial_posts->size(), 0);
        c->report.budget_spent = 0;
        c->report.stopped_early = c->config.options.budget > 0;
      }
    }
    c->tasks_in_flight = static_cast<int64_t>(c->order.in_flight());
    c->queue_delay_seconds = c->queue_delay_s;
    c->elapsed_seconds = c->begun ? c->started.ElapsedSeconds() : 0.0;
    c->final_deadline_slack_seconds = c->DeadlineSlackNow();
  }
  // Freed before the state is published, so a caller that saw the
  // campaign terminal never races the release.
  if (!quarantine) {
    // A failed campaign has no report, but its runtime still holds the
    // per-resource state and the trajectory table; Finish frees them.
    if (state == CampaignState::kFailed && c->begun) c->runtime.Finish();
    // The strategy may point into its context (FC's crowd model), so it
    // goes first.
    c->config.strategy.reset();
    c->config.stream.reset();
    c->config.context.reset();
    c->order = ApplyOrder();
    std::vector<core::ResourceId>().swap(c->batch);
    std::vector<TaskHandle>().swap(c->tasks);
    std::vector<uint64_t>().swap(c->drained);
    std::vector<core::ResourceId>().swap(c->apply_run);
    std::vector<persist::CompletionRecord>().swap(c->journal_batch);
  }
  c->Transition(state);
  // Out of the fleet: drop any ready-queue entry so a terminal campaign
  // cannot outrank live ones.
  scheduler_->Unregister(c->id);
  // Undelivered completions will never be drained by a stepper now, so
  // retire them from the fleet inbox-depth gauge; pushes arriving after
  // the transition above skip the gauge entirely.
  {
    util::MutexLock lock(&c->inbox_mu);
    if (!c->inbox.empty()) {
      ServiceMetrics::Get().inbox_depth->Add(
          -static_cast<int64_t>(c->inbox.size()));
      c->inbox.clear();
    }
  }
  if (quarantine) ServiceMetrics::Get().quarantines->Increment();
  c->terminal_cv.NotifyAll();
}

// Sink-thread callback: the retry ladder exhausted (or hit a permanent
// error on) `writer`. Flag the owning campaign; its next step boundary
// performs the actual quarantine on the stepper, where the journal and
// runtime state are safe to touch. Repeat reports for the same writer
// (a commit already in flight when the campaign untracked) are no-ops.
void CampaignManager::OnWriterSick(persist::JournalWriter* writer,
                                   const util::Status& status) {
  // `journal` is set before registration and never reassigned, so the
  // registry lock publishes the pointer.
  for (Campaign* c : AllCampaigns()) {
    if (c->journal.get() != writer) continue;
    {
      // Raised under the lock the step reads the error under, so the
      // step that sees the request sees its error.
      util::MutexLock lock(&c->status_mu);
      if (IsTerminal(c->state.load()) ||
          c->RaiseStop(StopRequest::kQuarantine) == StopRequest::kQuarantine) {
        return;
      }
      c->quarantine_error =
          "journal sync failed permanently: " + status.ToString();
    }
    ScheduleStep(c);
    return;
  }
}

// FleetHealth exit edge: reschedule every parked campaign, whose step
// takes the kParked -> kRunning edge. ScheduleStep is a no-op for
// campaigns whose token is held, and the step parks again if the health
// flaps back before it runs.
void CampaignManager::ResumeParked() {
  for (Campaign* c : AllCampaigns()) {
    if (c->state.load() == CampaignState::kParked) ScheduleStep(c);
  }
}

util::Status CampaignManager::Cancel(CampaignId id) {
  Campaign* c = Find(id);
  if (c == nullptr) return util::Status::NotFound("no such campaign");
  c->RaiseStop(StopRequest::kUserCancel);
  if (!IsTerminal(c->state.load())) ScheduleStep(c);
  return util::Status::OK();
}

util::Status CampaignManager::Compact(CampaignId id) {
  Campaign* c = Find(id);
  if (c == nullptr) return util::Status::NotFound("no such campaign");
  if (c->journal == nullptr) {
    return util::Status::FailedPrecondition("campaign is not journaled");
  }
  if (IsTerminal(c->state.load())) {
    // Finish() moved the report out and freed the runtime's state; there
    // is nothing left to snapshot (and nothing left to gain — a terminal
    // journal replays once, at recovery, into a terminal campaign).
    return util::Status::FailedPrecondition("campaign is terminal");
  }
  c->compact_requested.store(true);
  ScheduleStep(c);
  return util::Status::OK();
}

util::Result<CampaignStatus> CampaignManager::Status(CampaignId id) const {
  const Campaign* c = Find(id);
  if (c == nullptr) return util::Status::NotFound("no such campaign");
  return StatusOf(c);
}

// Takes the campaign's status_mu and nothing else.
CampaignStatus CampaignManager::StatusOf(const Campaign* c) {
  CampaignStatus out;
  out.id = c->id;
  out.name = c->config.name;
  out.strategy = c->strategy_name;
  out.budget = c->config.options.budget;
  out.priority = c->priority;
  out.quanta_run = c->quanta_run.load(std::memory_order_relaxed);
  util::MutexLock lock(&c->status_mu);
  out.state = c->state.load();
  out.deadline_slack_seconds = IsTerminal(out.state)
                                   ? c->final_deadline_slack_seconds
                                   : c->DeadlineSlackNow();
  out.budget_spent = c->budget_spent;
  out.tasks_completed = c->tasks_completed;
  out.tasks_in_flight = c->tasks_in_flight;
  out.records_replayed = c->records_replayed;
  out.metrics = c->metrics;
  out.checkpoints_recorded = c->checkpoints_recorded;
  out.queue_delay_seconds = c->queue_delay_seconds;
  out.elapsed_seconds = c->elapsed_seconds;
  out.tasks_per_second =
      c->elapsed_seconds > 0.0
          ? static_cast<double>(c->tasks_completed) / c->elapsed_seconds
          : 0.0;
  out.error = c->error;
  return out;
}

CampaignPage CampaignManager::List(const ListQuery& query) const {
  CampaignPage page;
  page.offset = query.offset;
  page.limit = std::min(query.limit, ListQuery::kMaxLimit);
  const std::string needle = util::AsciiToLower(query.search);
  // One pass in id order: count every match, snapshot only the window.
  // StatusOf takes that campaign's status_mu and nothing else, so a
  // full-fleet listing never touches an inbox lock or stalls a stepper.
  for (const Campaign* c : AllCampaigns()) {
    CampaignStatus s = StatusOf(c);
    if (query.state.has_value() && s.state != *query.state) continue;
    if (!needle.empty() &&
        util::AsciiToLower(s.name).find(needle) == std::string::npos) {
      continue;
    }
    if (page.total >= page.offset &&
        page.statuses.size() < page.limit) {
      page.statuses.push_back(std::move(s));
    }
    ++page.total;
  }
  return page;
}

util::Result<core::RunReport> CampaignManager::Wait(CampaignId id) {
  auto result = WaitFor(id, kNoDeadline);
  if (!result.ok()) return result.status();
  CampaignResult& done = result.value();
  if (done.state == CampaignState::kFailed) {
    return util::Status::Internal("campaign failed: " + done.error);
  }
  if (done.state == CampaignState::kQuarantined) {
    // No report: the campaign froze mid-run. Its journal is the
    // resumable truth; Recover() on healthy storage continues it.
    return util::Status::FailedPrecondition("campaign quarantined: " +
                                            done.error);
  }
  return std::move(done.report);
}

util::Result<CampaignResult> CampaignManager::WaitFor(
    CampaignId id, std::chrono::milliseconds timeout) {
  Campaign* c = Find(id);
  if (c == nullptr) return util::Status::NotFound("no such campaign");
  const auto start = std::chrono::steady_clock::now();
  util::MutexLock lock(&c->status_mu);
  while (!IsTerminal(c->state.load())) {
    if (timeout == kNoDeadline) {
      c->terminal_cv.Wait(&c->status_mu);
    } else if (!c->terminal_cv.WaitUntil(&c->status_mu, start + timeout)) {
      break;
    }
  }
  if (!IsTerminal(c->state.load())) {
    return util::Status::DeadlineExceeded(
        "campaign " + std::to_string(id) + " not terminal after " +
        std::to_string(timeout.count()) + "ms");
  }
  CampaignResult out;
  out.id = id;
  out.state = c->state.load();
  out.report = c->report;
  out.error = c->error;
  return out;
}

void CampaignManager::WaitAll() {
  for (Campaign* c : AllCampaigns()) Wait(c->id);
}

util::Result<std::vector<CampaignId>> CampaignManager::Recover(
    const std::string& dir, const CampaignFactory& factory) {
  INCENTAG_RETURN_IF_ERROR(RejectLegacyCommitLog(dir));
  auto files = util::ListDirFiles(dir, ".journal");
  if (!files.ok()) return files.status();

  // Phase 1: check every journal with no side effects, so a factory or
  // corruption error aborts recovery before any campaign has been
  // registered or resumed — the caller can fix the input and call
  // Recover again without double-resuming anything. One pass of the
  // frame cursor per journal checks every frame and decodes every record
  // in place (ScanJournal), so a record that phase 2 could not decode
  // fails here. Each journal's validated config waits beside its summary
  // for phase 2. Its post store is borrowed, but its strategy and
  // context may hold per-resource state (FC's crowd model: n doubles).
  struct Pending {
    std::string path;
    persist::JournalSummary summary;
    CampaignConfig config;
  };
  std::vector<Pending> pending;
  for (const std::string& path : files.value()) {
    if (recovered_paths_.count(path) > 0) continue;  // a retried Recover
    auto summary = persist::ScanJournal(path);
    if (!summary.ok()) return summary.status();
    if (!summary.value().has_submit) continue;
    // A parseable id that is already registered means this journal's
    // campaign is live in this manager; never open a second writer on a
    // file a live campaign is appending to.
    const CampaignId parsed = ParseJournalId(path);
    if (parsed != 0 && Find(parsed) != nullptr) continue;
    auto config = factory(summary.value().submit);
    if (!config.ok()) return config.status();
    INCENTAG_RETURN_IF_ERROR(ValidateConfig(config.value()));
    pending.push_back(Pending{path, std::move(summary).value(),
                              std::move(config).value()});
  }

  // Phase 2: rebuild and register one journal at a time, in file order,
  // and replay each from its latest good snapshot one record at a time.
  // Only IO-level failures can abort from here on, and resumed journals
  // are remembered, so even such an abort is safely retryable. With a
  // pool, a replay runs as a pool task while this thread registers the
  // next journal, at most one per worker at a time (this thread replays
  // itself when they are all busy); Recover returns once every replay
  // has finished. Every trajectory table is pinned until then: a
  // recovered campaign that finishes during its replay would otherwise
  // free its table, and the next journal on that dataset would build it
  // again.
  std::vector<std::shared_ptr<const core::InitialState>> tables;
  const auto window = std::make_shared<ReplayWindow>();
  // Destroyed before `tables`: the replays touch the pinned tables.
  struct WaitForReplays {
    ReplayWindow* window;
    ~WaitForReplays() { window->WaitIdle(); }
  } wait_for_replays{window.get()};
  std::vector<CampaignId> out;
  for (Pending& p : pending) {
    std::shared_ptr<const core::InitialState> table =
        InitialStateFor(p.config);
    if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
      tables.push_back(std::move(table));
    }
    auto registered =
        RegisterRecovered(p.path, p.summary, std::move(p.config));
    if (!registered.ok()) return registered.status();
    Campaign* c = registered.value();
    out.push_back(c->id);
    recovered_paths_.insert(p.path);
    if (pool_ != nullptr && window->TryAdd(pool_->num_threads())) {
      auto task = [this, c, window, &p] {
        Replay(c, p.path, p.summary);
        window->Finish();
      };
      if (!pool_->Submit(task)) task();
      continue;
    }
    Replay(c, p.path, p.summary);
    DrainReadyQueue();
  }
  return out;
}

// Registers one checked journal's campaign, reopening the journal for
// appends. The caller holds the campaign's scheduling token from here on
// and must Replay it.
util::Result<CampaignManager::Campaign*> CampaignManager::RegisterRecovered(
    const std::string& path, const persist::JournalSummary& journal,
    CampaignConfig config) {
  // Keep the campaign's pre-crash id when the file name encodes one (ids
  // are then stable across restarts), and move next_id_ past it so a
  // later Submit can never be handed an id whose journal file this
  // recovered campaign is still appending to.
  CampaignId id = ParseJournalId(path);
  if (id != 0 && Find(id) == nullptr) {
    CampaignId current = next_id_.load();
    while (current <= id &&
           !next_id_.compare_exchange_weak(current, id + 1)) {
    }
  } else {
    id = next_id_.fetch_add(1);
  }
  auto campaign = std::make_unique<Campaign>(this, id, std::move(config));
  Campaign* c = campaign.get();

  // A crash mid-compaction can leave a temp rewrite next to the journal;
  // it was never renamed, so it is dead weight — the journal itself is
  // the (old, uncompacted) truth.
  util::RemoveFile(path + persist::kCompactionTmpSuffix);

  // Resume the original journal file: drop the torn tail (if any), then
  // append post-recovery completions after the last intact record.
  auto writer = persist::JournalWriter::Open(path, journal.valid_bytes);
  if (!writer.ok()) return writer.status();
  c->journal = std::move(writer).value();
  c->submit_record = journal.submit;
  // Bytes-trigger baseline: a snapshot-bearing journal counts as freshly
  // compacted (only post-recovery growth should re-trigger); a legacy
  // uncompacted journal starts at 0 so the policy compacts it soon.
  if (journal.has_snapshot) {
    c->bytes_at_last_compact.store(journal.valid_bytes);
  }
  // Journaling may be off for new submits; recovered campaigns still
  // need the fsync batcher (and compactor). Recover's thread creates them
  // here before its first replay starts and never replaces them, so this
  // lazy init is unsynchronized.
  EnsureJournalWorkers();

  // Taken before the campaign is visible: the replay is its stepper.
  c->scheduled.store(true);
  INCENTAG_RETURN_IF_ERROR(TryRegister(id, std::move(campaign)));
  return c;
}

// Restores and replays a registered journal, then resumes the campaign
// live (or finalizes it). Runs with the campaign's scheduling token held;
// failures finalize the campaign, they are not returned.
void CampaignManager::Replay(Campaign* c, const std::string& path,
                             const persist::JournalSummary& journal) {
  const CampaignId id = c->id;
  // ---- replay: seek to the latest snapshot, replay only the tail ----
  c->queue_delay_s = c->submitted.ElapsedSeconds();
  c->started.Restart();
  // The journal was checked whole in phase 1; the replay reads it once
  // more from its latest good snapshot (or its start), one record at a
  // time, checking each frame again. A read failure here fails the
  // campaign; the journal itself is untouched and a later recovery can
  // retry it.
  auto cursor = persist::FrameCursor::Open(
      path, journal.has_snapshot ? journal.snapshot_offset : 0,
      journal.valid_bytes);
  if (!cursor.ok()) {
    Finalize(c, CampaignState::kFailed,
             "journal replay read failed: " + cursor.status().ToString());
    return;
  }
  uint64_t replay_from = 0;
  if (journal.has_snapshot) {
    // Restore the campaign's full resumable state from the snapshot;
    // Algorithm 1 determinism makes this byte-identical to replaying the
    // num_completions records it summarizes. A runtime-level restore
    // failure cannot fall back to full replay — the strategy, stream and
    // runtime are partially consumed by then, and a compacted journal no
    // longer holds the summarized prefix anyway — so it fails loudly.
    persist::SnapshotView snapshot;
    util::Status restored =
        cursor.value().Next()
            ? persist::DecodeSnapshotView(cursor.value().body(), &snapshot)
            : util::Status::Corruption("journal snapshot frame is gone");
    if (restored.ok()) {
      restored = c->runtime.RestoreResumableState(
          snapshot.runtime_state, c->config.strategy.get(),
          c->config.stream.get(), InitialStateFor(c->config));
    }
    if (!restored.ok()) {
      Finalize(c, CampaignState::kFailed,
               "journal snapshot failed to restore: " + restored.ToString());
      return;
    }
    c->begun = true;
    c->order.RestoreFrom(snapshot.Header());
    replay_from = snapshot.num_completions;
  } else {
    // No usable snapshot. Full replay works when the completion trace
    // starts at seq 0 — which is also the corrupt-snapshot fallback: a
    // snapshot whose intact frame fails to decode (snapshot_status) in
    // an uncompacted journal degrades to replaying everything. But a
    // trace that starts later — or an undecodable snapshot with NO tail
    // at all, the normal state right after a compaction — lost its
    // prefix to that snapshot; restarting from Begin would silently
    // discard the campaign's whole pre-crash spend, so fail loudly.
    const bool no_trace = journal.num_completions == 0;
    if ((!no_trace && journal.first_seq != 0) ||
        (no_trace && !journal.snapshot_status.ok())) {
      Finalize(c, CampaignState::kFailed,
               "journal snapshot is unusable (" +
                   journal.snapshot_status.ToString() +
                   ") and the completion trace " +
                   (no_trace ? std::string("was compacted into it")
                             : "starts at seq " +
                                   std::to_string(journal.first_seq)) +
                   ": full replay impossible");
      return;
    }
    util::Status status =
        c->runtime.Begin(c->config.strategy.get(), c->config.stream.get(),
                         InitialStateFor(c->config));
    if (!status.ok()) {
      Finalize(c, CampaignState::kFailed, status.ToString());
      return;
    }
    c->begun = true;
  }
  for (uint64_t i = 0; cursor.value().Next();) {
    // Completions only: the submit was read in phase 1, and a cancel
    // record takes effect below.
    const std::string_view body = cursor.value().body();
    if (body.empty() ||
        body[0] != static_cast<char>(persist::RecordType::kCompletion)) {
      continue;
    }
    persist::CompletionRecord record;
    util::Status decoded = persist::DecodeCompletionRecord(body, &record);
    if (!decoded.ok()) {
      Finalize(c, CampaignState::kFailed,
               "journal replay read failed: " + decoded.ToString());
      return;
    }
    if (c->order.in_flight() == 0) {
      util::Status status = c->runtime.DrawBatch(&c->batch);
      if (!status.ok()) {
        Finalize(c, CampaignState::kFailed, status.ToString());
        return;
      }
      if (c->batch.empty()) {
        Finalize(c, CampaignState::kFailed,
                 "journal replay diverged: " +
                     std::to_string(journal.num_completions) +
                     " recorded completions but the campaign stopped "
                     "after " +
                     std::to_string(i));
        return;
      }
      c->order.Assign(c->id, c->batch, &c->tasks);
    }
    // The journal records completions in application (= assignment)
    // order; any divergence means the factory rebuilt a different
    // campaign (wrong seed, options, or dataset) and replaying further
    // would fabricate state.
    if (record.seq != c->order.next_apply_seq() ||
        record.resource != c->order.next_resource()) {
      Finalize(c, CampaignState::kFailed,
               "journal replay diverged at record " + std::to_string(i) +
                   ": recorded seq " + std::to_string(record.seq) +
                   "/resource " + std::to_string(record.resource) +
                   ", replay expected seq " +
                   std::to_string(c->order.next_apply_seq()) + "/resource " +
                   std::to_string(c->order.next_resource()));
      return;
    }
    c->order.TakeRun({&record.seq, 1}, 1, &c->apply_run);  // seq checked above
    c->runtime.ApplyCompletion(record.resource);
    ++i;
  }
  // The walk stops at valid_bytes; anything but a clean end there means
  // the file changed since phase 1 checked it.
  if (!cursor.value().status().ok() || !cursor.value().tail_status().ok()) {
    Finalize(c, CampaignState::kFailed,
             "journal replay read failed: " +
                 (cursor.value().status().ok()
                      ? cursor.value().tail_status().ToString()
                      : cursor.value().status().ToString()));
    return;
  }
  {
    // Observability for benches and the recovery demo: how much tail the
    // snapshot seek left to replay. Guarded because pollers may already
    // see the registered campaign.
    util::MutexLock lock(&c->status_mu);
    c->records_replayed =
        static_cast<int64_t>(c->order.next_apply_seq() - replay_from);
  }

  // ---- resume live from exactly where the journal ends ----
  if (journal.cancelled) {
    // The operator cancelled this campaign before the restart; recovery
    // rebuilds its partial report but must not resume its spend.
    Finalize(c, CampaignState::kCancelled, "");
    return;
  }
  // Rejoin the fleet under the recovered scheduling class (journaled in
  // the SubmitRecord); a deadline restarts from the recovery clock.
  scheduler_->Register(id, ScheduleParams{c->priority, c->deadline_seconds});
  // The tail of the last recorded batch never completed before the
  // crash; hand it to the live completion source now.
  c->order.InFlightTasks(c->id, &c->tasks);
  PublishStatus(c);
  if (!c->tasks.empty() && !source_->SubmitTasks(c->tasks, c->completion_fn)) {
    Finalize(c, CampaignState::kFailed, kSourceClosedError);
    return;
  }
  // Keep the token and hand the campaign to the scheduler; the step
  // resumes it (or finalizes it, if the journal held the whole run).
  EnqueueDispatch(c);
}

void CampaignManager::Shutdown() {
  // The flag must be set before the sweep locks the registry (see the
  // matching comment in TryRegister); call_once makes concurrent or
  // repeated Shutdown calls block until the one real teardown completes,
  // so no caller can join the pool while another is still sweeping.
  shutdown_.store(true);
  std::call_once(shutdown_once_, [this] {
    // Drop the health exit hook first: after this no storage-recovery
    // edge can call back into a manager that is tearing down.
    if (options_.health != nullptr) options_.health->set_on_exit(nullptr);
    // Sweep every live campaign into cancellation, wait for the steps
    // to finalize them, then drain and join the pool.
    const std::vector<Campaign*> live = AllCampaigns();
    for (Campaign* c : live) {
      c->RaiseStop(StopRequest::kShutdown);
      if (!IsTerminal(c->state.load())) ScheduleStep(c);
    }
    DrainReadyQueue();
    for (Campaign* c : live) WaitFor(c->id, kNoDeadline);
    if (pool_ != nullptr) pool_->Shutdown();
    // After the pool: no stepper can enqueue further compactions or
    // syncs. The compactor stops first (its rewrites append nothing, but
    // they swap writer fds the sink is about to fsync), then the sink
    // drains its dirty set — every journaled record is on disk before
    // the campaigns (and their writers) are destroyed.
    if (compactor_ != nullptr) compactor_->Stop();
    if (sink_ != nullptr) sink_->Stop();
  });
}

}  // namespace service
}  // namespace incentag
