// CampaignManager: concurrent multi-campaign service layer.
//
// The paper evaluates one campaign at a time; a production tagging
// platform runs many — one per community/vocabulary/budget (cf.
// arXiv:2104.01028, arXiv:2104.08504) — fed by asynchronous task
// completions from the crowd. CampaignManager owns N independent
// campaigns (each an EngineOptions + Strategy + post store + per-resource
// states wrapped in a core::CampaignRuntime) and drives them concurrently
// on a fixed util::ThreadPool with an event-driven lifecycle:
//
//   Submit(config)                       -> campaign id, step scheduled
//   step: drain completion inbox         -> apply in assignment order
//         batch done?                    -> Strategy::Choose/OnAssigned,
//                                           tasks to the CompletionSource
//   completion span (any thread)         -> per-campaign MPSC inbox (one
//                                           lock per span), campaign
//                                           re-scheduled once
//   budget spent / strategy stopped      -> RunReport, waiters notified
//
// The completion path is batch-shaped end to end: a span of completions
// costs one inbox lock, one CampaignRuntime::ApplyCompletionBatch and one
// journal append (the "hot path" section of src/service/README.md).
//
// Threading model (see src/service/README.md for the full picture):
//   * One mutex guards the registry (id -> campaign), held only to look
//     up, register or list campaigns; a step never takes it (the ready
//     queue hands a worker the campaign itself), and every mutable
//     campaign structure is per-campaign.
//   * At most one thread steps a given campaign at a time, enforced by an
//     atomic "scheduled" token; the runtime itself is single-threaded.
//   * Completions land in a per-campaign MPSC inbox (mutex + swap-drain)
//     and are re-ordered into assignment order before application, so a
//     campaign's result is independent of tagger timing.
//   * Which campaign a free worker steps next — and how many completions
//     it may apply before yielding — is policy, delegated to the
//     Scheduler (src/service/scheduler/): round-robin (default,
//     pre-scheduler behavior), priority (weighted quanta), or EDF over
//     per-campaign deadlines. Each enqueue of a runnable campaign pairs
//     with one generic dispatch task on the pool; the dispatch pops the
//     scheduler's top-ranked campaign.
//
// Deterministic mode (ManagerOptions::deterministic) is the same driver
// on a single-thread executor: no pool, the inline completion source, and
// Submit/Recover step the ready queue on the calling thread until their
// campaigns are terminal. Reports are byte-identical to
// AllocationEngine::Run for the same inputs (the step applies completions
// in assignment order through the same CampaignRuntime step protocol).
//
// Durability (ManagerOptions::journal_dir): each campaign appends a
// write-ahead journal — one persist::SubmitRecord at Submit, one
// persist::CompletionRecord per applied task — with fsync batched on a
// persist::JournalSink thread. Recover(dir, factory) rebuilds campaigns
// from their journals after a crash: the factory re-attaches the
// non-serializable inputs (dataset pointers, strategy, stream) from the
// journaled SubmitRecord, the manager replays the recorded completions
// through the runtime's step protocol, and the campaign continues live
// from exactly where the journal ends.
#ifndef INCENTAG_SERVICE_CAMPAIGN_MANAGER_H_
#define INCENTAG_SERVICE_CAMPAIGN_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/initial_state.h"
#include "src/core/post_stream.h"
#include "src/core/strategy.h"
#include "src/persist/compactor.h"
#include "src/persist/journal.h"
#include "src/persist/journal_sink.h"
#include "src/service/completion_source.h"
#include "src/service/scheduler/scheduler.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace incentag {
namespace service {

class FleetHealth;

// Everything one campaign needs. `initial_posts`, `references` and the
// future posts `stream` reads (sim::PreparedDataset::MakeStream() reads
// the dataset in place) are borrowed, read-only dataset stores that must
// outlive the manager. `strategy` and `stream` are owned by the
// campaign and must not be shared across campaigns. Campaigns over one
// post store share one trajectory table (core::InitialState).
struct CampaignConfig {
  std::string name;
  core::EngineOptions options;
  const core::PostStore* initial_posts = nullptr;
  const std::vector<core::ResourceReference>* references = nullptr;
  std::unique_ptr<core::Strategy> strategy;
  std::unique_ptr<core::VectorPostStream> stream;
  // Journaled verbatim in the SubmitRecord and handed back to the
  // CampaignFactory at recovery — set it to whatever seed rebuilds this
  // exact strategy/stream pair (e.g. the FC crowd-model seed). Unused by
  // the manager itself.
  uint64_t seed = 0;
  // Optional keep-alive for auxiliary objects the strategy or stream
  // reference (e.g. the sim::CrowdModel behind FreeChoiceStrategy's
  // picker). Destroyed, with the strategy and the stream, when the
  // campaign ends kDone, kCancelled or kFailed.
  std::shared_ptr<void> context;
};

enum class CampaignState {
  kRunning,      // submitted; stepping or waiting for completions
  kParked,       // sitting out fleet degraded mode (priority <= 1 while
                 // FleetHealth reports degraded); runs again on its exit
  kDone,         // budget spent or strategy stopped early; report ready
  kCancelled,    // Cancel() took effect; partial report ready
  kFailed,       // configuration, strategy or completion-source error;
                 // see CampaignStatus::error
  kQuarantined,  // the campaign's journal fd went permanently sick: the
                 // campaign is frozen with its durable journal prefix
                 // intact and resumable — Recover() on a healthy disk
                 // replays it like a crash tail. No report; see
                 // CampaignStatus::error for the storage error.
};

// The lifecycle table, kLifecycle[from][to]: kRunning <-> kParked, either
// of them -> kDone, kCancelled, kFailed or kQuarantined, and nothing out
// of a terminal state (the rows left zero). Every state change is checked
// against it.
inline constexpr bool kLifecycle[6][6] = {
    // to: running parked done  cancelled failed quarantined
    {false, true, true, true, true, true},  // from kRunning
    {true, false, true, true, true, true},  // from kParked
};

constexpr bool IsLegalTransition(CampaignState from, CampaignState to) {
  return kLifecycle[static_cast<int>(from)][static_cast<int>(to)];
}

// Terminal: the campaign takes no further step and its state never moves.
constexpr bool IsTerminal(CampaignState state) {
  return state != CampaignState::kRunning && state != CampaignState::kParked;
}

// A point-in-time snapshot, pollable while the campaign runs.
struct CampaignStatus {
  CampaignId id = 0;
  std::string name;
  std::string strategy;
  CampaignState state = CampaignState::kRunning;
  int64_t budget = 0;
  int64_t budget_spent = 0;
  int64_t tasks_completed = 0;
  // Tasks assigned to the completion source and not yet applied.
  int64_t tasks_in_flight = 0;
  // Latest evaluation snapshot (quality, over/under-tagged, wasted).
  core::AllocationMetrics metrics;
  size_t checkpoints_recorded = 0;
  // Completions replayed from the journal when this campaign was
  // resurrected by Recover — the tail after the latest snapshot for a
  // compacted journal, the whole trace otherwise. 0 for fresh campaigns.
  int64_t records_replayed = 0;
  // Scheduling class (see src/service/scheduler/): the campaign's
  // priority weight and, when it has a deadline, the seconds remaining
  // until it (negative = already missed). Slack freezes at the value it
  // had when the campaign went terminal; 0 when the campaign has no
  // deadline.
  int32_t priority = 1;
  double deadline_slack_seconds = 0.0;
  // Scheduler quanta this campaign has run (1 per Step dispatch, in
  // either mode).
  int64_t quanta_run = 0;
  // Time from Submit until the first step ran — scheduler queueing, not
  // campaign work. Zero until the first step.
  double queue_delay_seconds = 0.0;
  // Active time since the campaign's first step (excludes queue delay).
  double elapsed_seconds = 0.0;
  // Completed tasks per active wall-clock second.
  double tasks_per_second = 0.0;
  std::string error;
};

// Fleet listing query (ISSUE 8): pagination window plus optional
// filters. Results are in ascending id order (stable across calls —
// ids are submission-ordered and never reused), so offset/limit pages
// are consistent as long as no new campaigns are submitted in between.
struct ListQuery {
  size_t offset = 0;
  // Page size; capped at kMaxLimit. 0 returns an empty page (with
  // `total` still counting matches — the "how many?" probe).
  size_t limit = 50;
  static constexpr size_t kMaxLimit = 1000;
  // Keep only campaigns in this state.
  std::optional<CampaignState> state;
  // Keep only campaigns whose name contains this substring
  // (case-insensitive ASCII). Empty matches everything.
  std::string search;
};

// One page of the fleet listing. `total` counts every campaign matching
// the filters, not just the page, so clients can paginate blindly.
struct CampaignPage {
  std::vector<CampaignStatus> statuses;
  size_t total = 0;
  size_t offset = 0;
  size_t limit = 0;
};

// Terminal outcome of one campaign, as returned by WaitFor: unlike the
// bare RunReport, the state disambiguates a cancelled-before-start
// campaign from one that genuinely ran (ISSUE 2 satellite).
struct CampaignResult {
  CampaignId id = 0;
  CampaignState state = CampaignState::kRunning;
  // Populated for kDone/kCancelled; for a campaign cancelled before its
  // first step it is synthesized from the config (strategy name, zero
  // allocation, stopped_early) rather than default-constructed.
  core::RunReport report;
  std::string error;  // non-empty for kFailed
};

struct ManagerOptions {
  // Worker threads; <= 0 means util::DefaultThreadCount(). Ignored in
  // deterministic mode (everything runs on the submitting thread).
  int num_threads = 0;
  // Run campaigns synchronously inside Submit (and Recover), in
  // submission order, on the calling thread, reproducing
  // AllocationEngine::Run exactly. Completions always come from the
  // inline source: `completions` is ignored, and campaigns never park.
  bool deterministic = false;
  // Completions applied per scheduling quantum before a campaign yields
  // its worker — the fairness knob between campaign count and latency.
  // This is the scheduler's base quantum; the priority policy scales it
  // by the campaign's weight, capped at 64.
  int64_t tasks_per_step = 256;
  // Cross-campaign stepping policy (dispatch order, weighted quanta,
  // aging) and its starvation bound. The policy defaults to round-robin
  // — byte-identical behavior to the pre-scheduler manager. Campaigns
  // carry their own class in core::EngineOptions::priority /
  // deadline_seconds.
  SchedulerOptions scheduler;
  // Tagger crowd; null means an internal InlineCompletionSource. An
  // external source must outlive the manager AND be stopped/quiesced
  // before the manager is destroyed (its callbacks touch manager state).
  CompletionSource* completions = nullptr;
  // Non-empty enables the write-ahead journal: one
  // `<journal_dir>/campaign-<id>.journal` per submitted campaign. The
  // directory is created if missing. Submitting reuses (truncates) a
  // stale journal file of the same name, so Recover() from a previous
  // incarnation's directory must happen before new Submits into it.
  std::string journal_dir;
  // Journal compaction. When a campaign is due, the stepper serializes a
  // checkpoint snapshot of its resumable state at a step boundary and
  // hands the journal to the persist::Compactor (one thread, one rewrite
  // at a time), which rewrites it as `submit + snapshot + tail`; recovery
  // then seeks to the snapshot and replays only the tail — bounded-time
  // restarts for long campaigns. Deterministic mode compacts inline.
  //
  // A campaign is due once its journal has grown this many bytes since
  // the last snapshot (a framed completion is
  // persist::kFramedCompletionBytes): bytes are what
  // recovery has to read and replay, and what the rewrite has to copy.
  // 0 disables the trigger; journals are then rewritten only by an
  // explicit Compact(id) or in degraded mode (see `health`).
  int64_t compact_journal_bytes = 0;
  // Fleet storage-health tracker (ISSUE 10). When set: journal sync
  // outcomes feed it; while it reports degraded, background-class
  // campaigns (priority <= 1) park at their next step boundary instead
  // of running, and compaction triggers aggressively to reclaim journal
  // bytes. The manager claims the tracker's on_exit hook to resume
  // parked campaigns the moment storage recovers. Must outlive the
  // manager; share one instance with the HTTP layer so intake sheds
  // writes over the same signal. Optional — null disables degraded
  // mode (sick writers still quarantine their campaigns).
  FleetHealth* health = nullptr;
};

class CampaignManager {
 public:
  // Rebuilds the non-serializable parts of a campaign from its journaled
  // SubmitRecord during Recover: dataset pointers, strategy (record.
  // strategy_name + record.seed), stream, and any CostModel. The
  // returned config's `options` should normally be taken from
  // `record.options` unchanged — recovery replay is only byte-identical
  // if the engine options match the original run. Recover calls it once
  // per journal, before any campaign is registered or resumed.
  using CampaignFactory = std::function<util::Result<CampaignConfig>(
      const persist::SubmitRecord& record)>;

  explicit CampaignManager(ManagerOptions options);
  // Implies Shutdown(): campaigns still running are cancelled, not
  // awaited. Call WaitAll() first if you want their reports.
  ~CampaignManager();

  CampaignManager(const CampaignManager&) = delete;
  CampaignManager& operator=(const CampaignManager&) = delete;

  // Registers the campaign and schedules its first step (deterministic
  // mode: steps it to completion before returning). Fails fast on null
  // config fields or mismatched sizes. With journaling enabled the
  // SubmitRecord is fsynced before the campaign is registered, so a
  // crash at any later point can recover it. Fails with
  // FailedPrecondition, naming the file, when the constructor found a
  // non-empty `fleet-commit.log` from an older build in journal_dir.
  util::Result<CampaignId> Submit(CampaignConfig config);

  // Scans `dir` for campaign journals and resurrects each one: reads its
  // SubmitRecord + completion trace (a torn/corrupt tail is truncated),
  // asks `factory` for a fresh CampaignConfig, restores the latest
  // checkpoint snapshot when one exists and replays the rest of the trace
  // through the runtime's step protocol; Algorithm 1's determinism makes
  // this byte-identical to the pre-crash run. The campaign then resumes
  // live, appending to the same journal (deterministic mode: steps it to
  // completion before returning). A snapshot that does not decode falls
  // back to full replay when the trace still starts at seq 0 and fails
  // the campaign when its prefix was compacted away; a journal that
  // diverges from the replay likewise fails only its campaign. Files
  // without an intact SubmitRecord (a crash between journal creation and
  // the submit fsync) are skipped. A journal named `campaign-<id>.journal`
  // resurrects under its original id, and later Submits get higher ids.
  // Returns the new ids in journal-file order. Every journal is checked
  // and run through the factory before any campaign is resumed, so an
  // error return means no side effects (and a rare IO failure mid-resume
  // is retryable: already-resumed journals are skipped). With a pool the
  // replays run on the workers; all have finished when Recover returns.
  // A non-empty `fleet-commit.log` left in `dir` by an older build fails
  // recovery with FailedPrecondition before any journal is read.
  // Call from one thread, before submitting new campaigns.
  util::Result<std::vector<CampaignId>> Recover(const std::string& dir,
                                                const CampaignFactory& factory);

  // Requests cancellation; takes effect at the campaign's next step
  // boundary (a campaign whose first step has not run yet is cancelled
  // before Begin, and its report synthesized from the config). No-op on
  // campaigns already terminal.
  util::Status Cancel(CampaignId id);

  // Requests a one-off journal compaction, independent of
  // compact_journal_bytes; the snapshot is taken at the campaign's next
  // step boundary and the rewrite runs on the compactor thread.
  // Fails on unjournaled or already-terminal campaigns.
  util::Status Compact(CampaignId id);

  // Snapshot of one campaign.
  util::Result<CampaignStatus> Status(CampaignId id) const;

  // Paginated, filterable fleet listing in ascending id order. Touches
  // only the registry and each listed campaign's status_mu —
  // never an inbox lock — so listing cannot stall the completion hot
  // path. The query surface every client (HTTP, campaign_server
  // rollups, tests) goes through.
  CampaignPage List(const ListQuery& query) const;

  // Status, List, Wait and WaitFor answer for every campaign the manager
  // ever registered: campaigns are never erased, and a terminal one keeps
  // its status fields and report (but not its strategy, stream or
  // journal descriptor; see Finalize).

  // Blocks until the campaign is terminal. Returns its RunReport (for
  // kCancelled: the partial report, with stopped_early=true whenever the
  // cancellation left budget unspent); kFailed surfaces as an error
  // status.
  util::Result<core::RunReport> Wait(CampaignId id);

  // Bounded Wait: blocks at most `timeout`, then DeadlineExceeded — so
  // callers never hang forever on a wedged campaign. On success the
  // CampaignResult carries the terminal state alongside the report
  // (kFailed is a valid result here, not an error status). A timeout of
  // std::chrono::milliseconds::max() waits without a deadline.
  util::Result<CampaignResult> WaitFor(CampaignId id,
                                       std::chrono::milliseconds timeout);

  // Blocks until every submitted campaign is terminal.
  void WaitAll();

  // Cancels all running campaigns, waits for their steps to settle,
  // joins the pool and stops the journal sink (final fsync included).
  // Idempotent; implied by the destructor.
  void Shutdown();

  int num_threads() const;
  size_t num_campaigns() const;
  // Trajectory tables (core::InitialState) that campaigns hold now: one
  // per (initial posts, post store, references, omega) in use.
  size_t num_initial_states() const;

 private:
  struct Campaign;

  Campaign* Find(CampaignId id) const;
  // Every registered campaign, in ascending id order.
  std::vector<Campaign*> AllCampaigns() const;
  static CampaignStatus StatusOf(const Campaign* campaign);
  util::Status TryRegister(CampaignId id,
                           std::unique_ptr<Campaign> campaign);
  void ScheduleStep(Campaign* campaign);
  void EnqueueDispatch(Campaign* campaign);
  bool DispatchStep();
  void DrainReadyQueue();
  void Step(Campaign* campaign);
  util::Result<Campaign*> RegisterRecovered(
      const std::string& path, const persist::JournalSummary& journal,
      CampaignConfig config);
  void Replay(Campaign* campaign, const std::string& path,
              const persist::JournalSummary& journal);
  void Finalize(Campaign* campaign, CampaignState state, std::string error);
  void PublishStatus(Campaign* campaign);
  void OnCompletionBatch(Campaign* campaign,
                         std::span<const TaskHandle> tasks);
  // Applies the collected apply_run to the runtime and journals it as
  // one batch; returns false (campaign finalized kFailed) on a journal
  // error. Caller advances nothing on failure.
  bool ApplyRun(Campaign* campaign);
  void FlushJournal(Campaign* campaign);
  void MaybeCompact(Campaign* campaign);
  void EnsureJournalWorkers();
  // The trajectory table for `config`'s dataset, post store and omega:
  // the live one if any campaign still holds it, else a new one (under
  // the lock, so concurrent first steps share it). Construction replays
  // nothing; Begin and restores build what they need under the table's
  // own lock.
  std::shared_ptr<const core::InitialState> InitialStateFor(
      const CampaignConfig& config);
  // Sink-thread callback: the retry ladder gave up on `writer`. Flags
  // the owning campaign for quarantine at its next step boundary.
  void OnWriterSick(persist::JournalWriter* writer,
                    const util::Status& status);
  // FleetHealth on_exit hook: reschedules every parked campaign.
  void ResumeParked();

  ManagerOptions options_;
  std::unique_ptr<InlineCompletionSource> inline_source_;
  CompletionSource* source_ = nullptr;  // options_.completions or inline
  // The stepping policy: ready queue and per-campaign quanta. Never
  // null, in either mode.
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<util::ThreadPool> pool_;  // null in deterministic mode
  std::unique_ptr<persist::JournalSink> sink_;  // null unless journaling
  // Background journal rewriter; null in deterministic mode (compaction
  // then runs inline on the driving thread) and until journaling is on.
  std::unique_ptr<persist::Compactor> compactor_;
  // Every campaign the manager ever registered. Campaigns are never
  // erased before the manager is destroyed (a terminal one keeps only its
  // status and report; see Finalize), so a pointer obtained under the
  // lock stays valid afterwards.
  mutable util::Mutex registry_mu_;
  std::map<CampaignId, std::unique_ptr<Campaign>> campaigns_
      GUARDED_BY(registry_mu_);
  // One trajectory table per (initial posts, post store, references,
  // omega), shared by every campaign on it and freed with the last of
  // them (weak_ptr); expired entries are pruned by InitialStateFor.
  mutable util::Mutex initial_states_mu_;
  std::vector<std::weak_ptr<const core::InitialState>> initial_states_
      GUARDED_BY(initial_states_mu_);
  // Journal files already resumed by Recover (single-threaded access —
  // see Recover's contract); makes a retried Recover skip them.
  std::unordered_set<std::string> recovered_paths_;
  // Non-OK when journal_dir holds a fleet commit log from an older build
  // (see Submit); every journaled Submit returns it.
  util::Status journal_dir_status_;
  std::atomic<CampaignId> next_id_{1};
  std::atomic<bool> shutdown_{false};
  std::once_flag shutdown_once_;
};

}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_CAMPAIGN_MANAGER_H_
