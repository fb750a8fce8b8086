// JournalSink: batched group commit on a dedicated thread.
//
// fsync is the expensive step of journaling — milliseconds on real disks —
// and the service layer appends completion records from every campaign
// step. Synchronous per-append fsync would serialise the whole manager
// behind the disk. Instead, writers buffer or flush bytes themselves
// (cheap) and hand the *durability* step to the sink: Schedule(writer)
// marks the journal dirty, and the sink thread gives every journal
// marked since its last pass one fdatasync. However many steps a
// campaign takes inside one batching window, its journal costs one
// fdatasync for that window, not one per append (let alone per applied
// task).
//
// Durability contract: a record is power-loss durable only after the sink
// pass covering its Schedule() has synced it (or after an explicit
// JournalWriter::Sync, which the manager issues at terminal states). A
// crash can lose the tail of a journal back to the last sync — recovery
// handles exactly that by truncating to the last intact record and
// re-running the lost steps, which Algorithm 1's determinism makes
// byte-identical.
//
// Storage faults: a failed sync runs the bounded retry ladder
// (SyncRetryPolicy) — rebuild the writer's descriptor, back off, sync
// again — and a writer the ladder cannot save is reported sick instead
// of wedging the sink or passing silently.
#ifndef INCENTAG_PERSIST_JOURNAL_SINK_H_
#define INCENTAG_PERSIST_JOURNAL_SINK_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "src/persist/journal.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace incentag {

namespace obs {
class Counter;
}  // namespace obs

namespace persist {

// Shared handle to the incentag_persist_journal_syncs_total counter, so
// the sink's passes and its teardown-straggler inline sync feed the same
// metric.
obs::Counter* JournalSyncsCounter();

// Bounded exponential backoff for transient journal-sync failures
// (ISSUE 10). One ladder run is: sync fails transiently -> sleep the
// backoff -> rebuild the writer's descriptor (fsyncgate: a failed sync
// poisons the page cache, so the fd is reopened and the untrusted range
// re-appended from the last durable offset — never re-fsynced blindly)
// -> retry, up to max_attempts total sync attempts.
struct SyncRetryPolicy {
  int max_attempts = 4;
  int64_t initial_backoff_us = 500;
  double multiplier = 4.0;
  int64_t max_backoff_us = 100'000;
};

struct JournalSinkOptions {
  // The sink sleeps this long after a pass before syncing again, widening
  // the coalescing window; 0 syncs as fast as the dirty set refills.
  int64_t batch_interval_us = 500;
  // Retry ladder for transient per-journal sync failures.
  SyncRetryPolicy retry;
  // Health callbacks, invoked from the sink thread with no sink locks
  // held. The service layer uses them to drive fleet degraded mode:
  // every failed sync attempt reports on_storage_error (with the
  // classified status), every successful sync reports on_storage_ok,
  // and a writer whose ladder is exhausted — or whose failure is
  // permanent — reports on_writer_sick exactly once per episode so the
  // campaign layer can quarantine it. All optional.
  std::function<void(const util::Status&)> on_storage_error;
  std::function<void()> on_storage_ok;
  std::function<void(JournalWriter*, const util::Status&)> on_writer_sick;
};

class JournalSink {
 public:
  explicit JournalSink(JournalSinkOptions options = {});
  ~JournalSink();  // implies Stop()

  JournalSink(const JournalSink&) = delete;
  JournalSink& operator=(const JournalSink&) = delete;

  // Marks `writer` as having unsynced appends. The writer must stay alive
  // until a Drain() (or Stop()) after its last Schedule.
  void Schedule(JournalWriter* writer) EXCLUDES(mu_);

  // Drops `writer`'s pending dirty mark, so no pass that starts later
  // syncs it (quarantine: a sick fd must never be synced again).
  void Untrack(JournalWriter* writer) EXCLUDES(mu_);

  // Blocks until every journal scheduled before the call has been synced.
  void Drain() EXCLUDES(mu_);

  // Drains, then joins the sink thread. Idempotent; Schedule after Stop
  // syncs inline on the calling thread (teardown straggler safety).
  void Stop() EXCLUDES(mu_);

  // Journals synced across all passes, for tests and bench output.
  int64_t syncs() const EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_);

  const JournalSinkOptions options_;
  mutable util::Mutex mu_;
  util::CondVar dirty_cv_;   // signals the sink thread
  util::CondVar synced_cv_;  // signals Drain waiters
  std::unordered_set<JournalWriter*> dirty_ GUARDED_BY(mu_);
  // Monotonically counts sync passes begun / fully synced.
  int64_t epoch_started_ GUARDED_BY(mu_) = 0;
  int64_t epoch_finished_ GUARDED_BY(mu_) = 0;
  int64_t journals_synced_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::once_flag join_once_;
  std::thread thread_;
};

}  // namespace persist
}  // namespace incentag

#endif  // INCENTAG_PERSIST_JOURNAL_SINK_H_
