#include "src/persist/journal_sink.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace incentag {
namespace persist {

namespace {

obs::Histogram* FsyncSeconds() {
  static obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "incentag_persist_fsync_seconds", "Per-journal fsync latency",
      obs::LatencyBoundsSeconds());
  return histogram;
}

obs::Counter* RetryAttemptsCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_attempts_total",
      "Journal sync retries after a transient storage failure");
  return counter;
}

obs::Counter* RetrySuccessCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_success_total",
      "Journal syncs that succeeded on a retry attempt");
  return counter;
}

obs::Counter* RetryExhaustedCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_retry_exhausted_total",
      "Journal sync episodes that exhausted the retry ladder or hit a "
      "permanent error");
  return counter;
}

// The ladder itself: sync, classify, back off, rebuild the fd, retry.
// Sleeps happen with no locks held (the sink thread is the only caller).
util::Status SyncWithRetry(JournalWriter* writer,
                           const JournalSinkOptions& options) {
  const SyncRetryPolicy& retry = options.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  int64_t backoff_us = std::max<int64_t>(1, retry.initial_backoff_us);
  util::Status status;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      RetryAttemptsCounter()->Increment();
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min<int64_t>(
          std::max<int64_t>(1, retry.max_backoff_us),
          static_cast<int64_t>(static_cast<double>(backoff_us) *
                               retry.multiplier));
      // fsyncgate: the failed sync poisoned the page cache behind the
      // fd. Rebuild the writer on a fresh descriptor and re-append from
      // the last durable offset — never re-fsync the old fd blindly.
      util::Status recovered = writer->RecoverAfterSyncFailure();
      if (!recovered.ok()) {
        if (options.on_storage_error) options.on_storage_error(recovered);
        RetryExhaustedCounter()->Increment();
        return recovered;
      }
    }
    {
      obs::TraceSpan span("fsync");
      obs::ScopedTimer timer(FsyncSeconds());
      status = writer->SyncData();
    }
    if (status.ok()) {
      if (attempt > 0) RetrySuccessCounter()->Increment();
      if (options.on_storage_ok) options.on_storage_ok();
      return status;
    }
    if (options.on_storage_error) options.on_storage_error(status);
    if (util::ClassifyIoError(status) != util::IoErrorClass::kTransient) {
      break;  // retrying a permanent failure cannot help
    }
  }
  RetryExhaustedCounter()->Increment();
  return status;
}

}  // namespace

obs::Counter* JournalSyncsCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_journal_syncs_total",
      "Journal syncs completed by the sink, one per dirty journal per "
      "pass plus teardown stragglers");
  return counter;
}

JournalSink::JournalSink(JournalSinkOptions options)
    : options_(std::move(options)) {
  thread_ = std::thread([this] { Loop(); });
}

JournalSink::~JournalSink() { Stop(); }

void JournalSink::Untrack(JournalWriter* writer) {
  // A batch the loop has already popped may still reference the writer —
  // that sync fails like the one that caused the quarantine and the
  // repeat sick-callback is a no-op — but no *new* pass will touch it.
  util::MutexLock lock(&mu_);
  dirty_.erase(writer);
}

void JournalSink::Schedule(JournalWriter* writer) {
  {
    util::MutexLock lock(&mu_);
    if (!stopped_) {
      dirty_.insert(writer);
      dirty_cv_.NotifyOne();
      return;
    }
  }
  // Sink already stopped (teardown straggler): stay durable, sync inline
  // — and feed the same syncs metric the group-commit passes feed, so
  // stragglers are not invisible to the metrics gate.
  if (writer->Sync().ok()) JournalSyncsCounter()->Increment();
}

void JournalSink::Drain() {
  util::MutexLock lock(&mu_);
  // Anything dirty right now is covered by the next pass to start; a pass
  // already in flight (started > finished) must also land.
  const int64_t target =
      dirty_.empty() ? epoch_started_ : epoch_started_ + 1;
  dirty_cv_.NotifyOne();
  while (epoch_finished_ < target && !stopped_) synced_cv_.Wait(&mu_);
}

void JournalSink::Stop() {
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    dirty_cv_.NotifyOne();
  }
  // call_once: concurrent Stop callers must not race on join(), and every
  // caller returns only after the sink thread is really gone.
  std::call_once(join_once_, [this] { thread_.join(); });
}

int64_t JournalSink::syncs() const {
  util::MutexLock lock(&mu_);
  return journals_synced_;
}

void JournalSink::Loop() {
  // The batch loop interleaves locked bookkeeping with unlocked fsyncs,
  // so it manages mu_ explicitly; the analysis checks that every path —
  // including the loop back-edge — re-enters the loop holding the lock.
  mu_.Lock();
  for (;;) {
    while (!stop_ && dirty_.empty()) dirty_cv_.Wait(&mu_);
    if (dirty_.empty()) {
      // stop_ set and nothing left to sync.
      stopped_ = true;
      synced_cv_.NotifyAll();
      mu_.Unlock();
      return;
    }
    static obs::Histogram* commit_batch =
        obs::Registry::Default().GetHistogram(
            "incentag_persist_group_commit_batch_size",
            "Journals synced per group-commit pass", obs::BatchSizeBounds());
    std::vector<JournalWriter*> batch(dirty_.begin(), dirty_.end());
    dirty_.clear();
    ++epoch_started_;
    mu_.Unlock();
    commit_batch->Observe(static_cast<double>(batch.size()));
    // One fdatasync per dirty journal. A writer the ladder cannot save is
    // escalated, not fatal to the pass: the campaign layer quarantines it
    // while the rest of the fleet keeps committing.
    for (JournalWriter* writer : batch) {
      util::Status status = SyncWithRetry(writer, options_);
      if (status.ok()) {
        JournalSyncsCounter()->Increment();
      } else if (options_.on_writer_sick) {
        options_.on_writer_sick(writer, status);
      }
    }
    mu_.Lock();
    // Release Drain()/Stop() waiters the moment durability is achieved —
    // the coalescing sleep below must not tax them.
    ++epoch_finished_;
    journals_synced_ += static_cast<int64_t>(batch.size());
    synced_cv_.NotifyAll();
    if (!stop_ && options_.batch_interval_us > 0) {
      // Widen the coalescing window so steps landing right after this
      // pass share the next fsync instead of each triggering one.
      mu_.Unlock();
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.batch_interval_us));
      mu_.Lock();
    }
  }
}

}  // namespace persist
}  // namespace incentag
