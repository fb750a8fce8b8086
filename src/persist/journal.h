// Per-campaign write-ahead journal: record format, writer and reader.
//
// The paper's campaigns are long-lived — budget drains over days of crowd
// activity — so the service layer journals enough to survive a process
// crash: one SubmitRecord capturing the campaign's deterministic inputs
// (name, strategy, seed, EngineOptions), then one CompletionRecord per
// post task *applied* to the runtime, in application (= assignment) order.
// Because Algorithm 1 is deterministic given those inputs and the
// application order, replaying the journal through the same
// core::CampaignRuntime step protocol reconstructs the exact pre-crash
// state — byte-identical metrics, checkpoints and allocation — after
// which the campaign simply continues live (see
// service::CampaignManager::Recover).
//
// On-disk framing, little-endian, one record after another:
//
//   [u32 payload_len][u32 crc32(payload_len || payload)][payload]
//   payload = [u8 record_type][body]
//
// The CRC covers the length word as well as the payload, so a damaged
// length cannot silently reframe the stream. A crash mid-append tears a
// *prefix* of the final record (or leaves unsynced garbage at the
// physical end of file); the reader treats only such end-of-file damage
// as a benign torn tail, reporting how many bytes were intact so
// recovery truncates and appends from there. Damage *before* the end of
// the data — an intact-looking frame that fails its CRC or decode with
// more records after it — is real corruption and surfaces as an error
// rather than silently truncating fsynced records.
//
// What is deliberately NOT journaled:
//   * datasets (initial posts, references, streams) — shared, read-only,
//     re-attached at recovery by the caller's CampaignFactory;
//   * a CostModel — non-serializable caller state, ditto;
//   * completion payloads — a completed task's post is drawn
//     deterministically from the stream, so (seq, resource) suffices.
#ifndef INCENTAG_PERSIST_JOURNAL_H_
#define INCENTAG_PERSIST_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocation.h"
#include "src/core/types.h"
#include "src/util/file_io.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace incentag {
namespace persist {

// Format 2 added checkpoint snapshots (kSnapshot) and compaction; format
// 3 appends the scheduling class (EngineOptions::priority /
// deadline_seconds) to the SubmitRecord body. Both older formats still
// read fine: v1/v2 journals have no snapshots / no scheduling fields and
// decode with the defaults (priority 1, no deadline).
inline constexpr uint32_t kJournalFormatVersion = 3;

enum class RecordType : uint8_t {
  kSubmit = 1,
  kCompletion = 2,
  // Written when an operator explicitly cancels the campaign (not by the
  // manager's shutdown sweep — a graceful restart must stay resumable).
  // Recovery replays the trace for the partial report, then finalizes
  // kCancelled instead of resuming spend.
  kCancel = 3,
  // Format v2: a checkpoint snapshot of the campaign's full resumable
  // state after `num_completions` applied tasks. Compaction rewrites the
  // journal as submit + snapshot + tail so recovery replays only the
  // completions after the snapshot instead of the whole trace.
  kSnapshot = 4,
};

// The deterministic inputs of one campaign, written once at Submit.
struct SubmitRecord {
  uint32_t format_version = kJournalFormatVersion;
  std::string name;
  std::string strategy_name;
  // Caller-defined seed handed back to the CampaignFactory at recovery
  // (e.g. the FC crowd-model seed); 0 when the strategy is seedless.
  uint64_t seed = 0;
  // EngineOptions minus the CostModel pointer (see header comment).
  core::EngineOptions options;
};

// One applied post task: the `seq`-th assignment completed on `resource`.
struct CompletionRecord {
  uint64_t seq = 0;
  core::ResourceId resource = core::kInvalidResource;
};

// A checkpoint of one campaign's full resumable state (format v2). The
// runtime_state blob is produced by
// core::CampaignRuntime::SerializeResumableState and covers the
// per-resource observable states, evaluation accumulators, allocation,
// checkpoint metrics, stream cursors and the strategy's opaque state —
// doubles bit-exact, so restoring is byte-identical to replaying the
// first num_completions records. pending/next_assign_seq capture the
// service layer's in-flight batch tail (assigned but not yet applied)
// at the moment of the snapshot.
struct SnapshotRecord {
  uint32_t format_version = kJournalFormatVersion;
  // Completions applied when the snapshot was taken; the journal's tail
  // continues with seq == num_completions.
  uint64_t num_completions = 0;
  uint64_t next_assign_seq = 0;
  // Assignment order of drawn-but-unapplied tasks; front corresponds to
  // seq num_completions.
  std::vector<core::ResourceId> pending;
  std::string runtime_state;
};

// Record body encoding (used by the writer; exposed for tests).
std::string EncodeSubmitRecord(const SubmitRecord& record);
std::string EncodeCompletionRecord(const CompletionRecord& record);
// Appends the completion record body to `out` without allocating a
// fresh string — the batched append path encodes a whole quantum of
// records into one reused arena buffer.
void EncodeCompletionRecordTo(const CompletionRecord& record,
                              std::string* out);
std::string EncodeSnapshotRecord(const SnapshotRecord& record);
util::Status DecodeSubmitRecord(std::string_view body, SubmitRecord* out);
util::Status DecodeCompletionRecord(std::string_view body,
                                    CompletionRecord* out);
util::Status DecodeSnapshotRecord(std::string_view body, SnapshotRecord* out);

// A snapshot record decoded in place: the fields, plus views of the
// pending ids and the runtime state into the body. Decoding one
// allocates nothing, so recovery checks every snapshot of every journal
// this way before it resumes any campaign, and restores from the view.
// DecodeSnapshotRecord is this decoder plus copies, so both accept
// exactly the same bodies.
struct SnapshotView {
  uint32_t format_version = 0;
  uint64_t num_completions = 0;
  uint64_t next_assign_seq = 0;
  // next_assign_seq - num_completions little-endian u32 resource ids.
  std::string_view pending;
  std::string_view runtime_state;

  // The record without its runtime state: the service layer's in-flight
  // batch tail at the snapshot.
  SnapshotRecord Header() const;
};
util::Status DecodeSnapshotView(std::string_view body, SnapshotView* out);

// Wraps a record body in the on-disk framing ([len][crc][payload]); the
// writer appends these, and tests hand-construct journal files with it.
std::string FrameRecord(std::string_view body);

// Appends one framed completion record to `out` — byte-identical to
// `out += FrameRecord(EncodeCompletionRecord(record))` but with zero
// intermediate allocations: the body is encoded in place after a
// reserved 8-byte header, then the length and CRC are backfilled.
void AppendFramedCompletionRecord(const CompletionRecord& record,
                                  std::string* out);

// Journal bytes of one framed completion record, whatever its seq and
// resource: the 8-byte frame header plus a fixed 13-byte body. Journal
// byte cadences counted in completions are written in this unit.
inline constexpr int64_t kFramedCompletionBytes = 21;

// Suffix of the temporary file a compaction writes next to the journal
// before the atomic rename. A crash mid-compaction leaves it behind; it
// never matches ListDirFiles(dir, ".journal"), and recovery deletes it.
inline constexpr char kCompactionTmpSuffix[] = ".compact.tmp";

// Appends framed records to one campaign's journal file. Thread-safe: the
// stepper thread appends while the JournalSink's thread syncs. Appends
// buffer in memory; Flush() makes them crash-of-process durable, Sync()
// makes them power-loss durable (fsync).
class JournalWriter {
 public:
  // Creates (or reopens) `path`. `truncate_to` >= 0 first cuts the file
  // to that many bytes — recovery passes the reader's valid_bytes() to
  // drop a torn tail before resuming appends.
  static util::Result<std::unique_ptr<JournalWriter>> Open(
      const std::string& path, int64_t truncate_to = -1);

  util::Status AppendSubmit(const SubmitRecord& record) EXCLUDES(mu_);
  util::Status AppendCompletion(const CompletionRecord& record)
      EXCLUDES(mu_);
  // Appends a whole quantum of completion records with one writer-lock
  // acquisition and ONE syscall: the records are framed (one CRC pass
  // each, same on-disk bytes as `count` AppendCompletion calls — v1–v3
  // readers need no format bump) into a thread-reused arena buffer,
  // then the arena plus any already-dirty buffered bytes are handed to
  // the kernel in a single gathered pwritev
  // (util::AppendFile::AppendGather), so steady-state batches allocate
  // nothing and cost exactly one kernel crossing. On error the
  // unwritten remainder stays buffered and the next Flush/Sync writes
  // each byte exactly once.
  util::Status AppendCompletionBatch(const CompletionRecord* records,
                                     size_t count) EXCLUDES(mu_);
  util::Status AppendCancel() EXCLUDES(mu_);

  util::Status Flush() EXCLUDES(mu_);
  // Both syncs first retry a directory fsync a compaction still owes
  // (see Compact), and fail while it fails.
  util::Status Sync() EXCLUDES(mu_);

  // Flush + fdatasync — the cheap durability point the JournalSink
  // issues once per dirty journal per batching window.
  util::Status SyncData() EXCLUDES(mu_);

  // Fsyncgate recovery (ISSUE 10): after a failed Sync/SyncData the
  // page cache behind the fd is untrusted — the kernel may have marked
  // the dirty pages clean without writing them, so blindly re-syncing
  // the same descriptor can report durability for bytes that never
  // landed. This rebuilds the writer on a fresh descriptor truncated to
  // the last offset a *successful* sync covered, with every byte past
  // it restored into the write buffer (util::AppendFile::
  // ReopenAndRestore); the caller then retries the sync, which rewrites
  // exactly the untrusted range. On failure the writer is permanently
  // sick and must be quarantined.
  util::Status RecoverAfterSyncFailure() EXCLUDES(mu_);

  // Bytes appended but not yet handed to the kernel — the dirty tail a
  // retry ladder is still responsible for. The manager caps this while
  // a journal rides out transient append failures.
  int64_t buffered_bytes() EXCLUDES(mu_);

  // Logical journal size in bytes (appended, possibly still buffered).
  // A stepper reads this right after taking a snapshot: everything at or
  // beyond the returned offset is the snapshot's tail.
  int64_t size() EXCLUDES(mu_);

  // Atomically rewrites the journal as `submit + snapshot + tail`, where
  // the tail is every byte from `tail_offset` to the end — the
  // completions applied after the snapshot was taken. Safe to run from a
  // background thread while other threads keep appending: the bulk of
  // the tail is copied without the writer lock, and only the final
  // delta-copy + fsync + rename + fd swap hold it. Torn-compaction safe:
  // the rewrite goes to `path + kCompactionTmpSuffix` first, is fsynced,
  // renamed over the journal, and the directory fsynced — a crash leaves
  // either the old journal (plus a stale tmp) or the new one, never a
  // mix. Each of the three pieces (submit + snapshot, bulk tail, delta)
  // reaches the rewrite in one gathered pwritev, never through its
  // buffer, and the writer then adopts the rewrite's open descriptor: a
  // compacted writer keeps no copy of the snapshot or the tail. A closed
  // writer (Close may land from another thread mid-rewrite) is refused
  // with FailedPrecondition, and any failure before the rename removes
  // the partial rewrite. Once the rename succeeds the writer runs on the
  // rewrite; if the directory fsync then fails, Compact returns that
  // error and the writer owes the fsync to its next Sync or SyncData.
  util::Status Compact(const SubmitRecord& submit,
                       const SnapshotRecord& snapshot, int64_t tail_offset)
      EXCLUDES(mu_);

  // Closes the descriptor and frees the buffer, for a writer whose
  // records are all synced (a finished campaign's). Later Flush, Sync and
  // SyncData calls have nothing to make durable and return OK, so a sink
  // pass that still holds the writer is harmless; appends and Compact
  // fail.
  util::Status Close() EXCLUDES(mu_);

  const std::string& path() const { return path_; }

 private:
  explicit JournalWriter(std::string path) : path_(std::move(path)) {}

  util::Status AppendFramed(std::string_view body) EXCLUDES(mu_);
  // Fsyncs the journal's directory if a compaction's rename still needs
  // it.
  util::Status SyncOwedDir() REQUIRES(mu_);

  const std::string path_;
  util::Mutex mu_;
  // The open journal fd + userspace buffer. Stepper threads append while
  // the sink thread fsyncs and the compactor swaps the descriptor, all
  // through this one handle — every touch holds mu_.
  util::AppendFile file_ GUARDED_BY(mu_);
  // Offset the journal file is known power-loss durable to (last
  // successful Sync/SyncData, or the full rewrite after a compaction):
  // the anchor RecoverAfterSyncFailure truncates back to.
  int64_t durable_size_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  // Set from a compaction's rename until a directory fsync succeeds.
  bool dir_sync_owed_ GUARDED_BY(mu_) = false;
};

// Walks a journal's frames front to back, checks each frame's CRC and
// yields one record body at a time. It is the one reader of the framing:
// ReadJournal, ScanJournal, recovery's replay and the compactor's tail
// copy all go through it. Over a file it reads a 64 KiB window at a
// time, so it holds one window or one record, whichever is larger.
//
// The damage rules:
//   * a short frame header or short payload at the end of the data is a
//     torn tail;
//   * a whole frame that fails its CRC is a torn tail when it ends
//     exactly at the end of the data (a torn append is a prefix of a
//     valid record, so only unsynced garbage can look whole), and
//     mid-journal corruption when more data follows it.
// A torn tail ends the walk: tail_status() describes it and
// valid_bytes() stops before it. Mid-journal corruption and read errors
// end the walk with status() set.
class FrameCursor {
 public:
  // Over `bytes`, which must outlive the cursor; bytes[0] sits at file
  // offset `base`.
  explicit FrameCursor(std::string_view bytes, int64_t base = 0);

  // Over the file at `path`, from `offset` (a frame boundary) to `end`,
  // or to the end of the file when `end` < 0.
  static util::Result<FrameCursor> Open(const std::string& path,
                                        int64_t offset = 0,
                                        int64_t end = -1);

  FrameCursor(FrameCursor&&) = default;
  FrameCursor& operator=(FrameCursor&&) = default;

  // Advances to the next intact frame: true with body() and offset()
  // set; false once the walk is over (see the statuses below).
  bool Next();

  // The current record's payload ([u8 type][body]); valid until the next
  // call to Next() or a move of the cursor.
  std::string_view body() const { return body_; }
  // File offset of the current frame.
  int64_t offset() const { return offset_; }
  // Offset just past the last intact frame.
  int64_t valid_bytes() const { return pos_; }
  // OK while walking and at a clean end; Corruption describing the torn
  // tail otherwise.
  const util::Status& tail_status() const { return tail_status_; }
  // Non-OK for mid-journal corruption or a failed read.
  const util::Status& status() const { return status_; }

 private:
  FrameCursor() = default;

  // Makes [pos_, pos_ + n) readable in data_; false (status_ set) on a
  // read error.
  bool Fill(size_t n);

  // The bytes at [data_start_, data_start_ + data().size()).
  std::string_view data() const {
    return from_file_ ? std::string_view(window_) : bytes_;
  }

  bool from_file_ = false;
  util::ReadableFile file_;
  std::string window_;       // the last window read from file_
  std::string_view bytes_;   // the caller's bytes, in memory
  int64_t data_start_ = 0;
  int64_t pos_ = 0;
  int64_t end_ = 0;
  int64_t offset_ = 0;
  std::string_view body_;
  bool done_ = false;
  util::Status tail_status_;
  util::Status status_;
};

// What checking every frame and record of a journal tells recovery,
// keeping no record but the submit. The record rules: one submit, first;
// completions in seq order with no gap, none after a cancel; a snapshot
// after the submit, agreeing with the completions before it. An intact
// frame that breaks them is corruption, because recovery must not guess
// past it.
struct JournalSummary {
  SubmitRecord submit;
  // False when the file holds no intact SubmitRecord at all (a crash
  // between journal creation and the submit fsync): nothing recoverable.
  bool has_submit = false;
  // True when the journal records an explicit operator cancellation; no
  // completions may follow it.
  bool cancelled = false;
  // Format v2: the latest snapshot that decodes, and the offset of its
  // frame. Recovery restores from it and replays only the completions
  // after it.
  bool has_snapshot = false;
  int64_t snapshot_offset = -1;
  // OK when every snapshot record in the file decoded. A snapshot whose
  // frame is intact but whose body does not decode (e.g. written by a
  // newer format) is reported here instead of failing the read, so
  // recovery can fall back to full replay when the completion trace
  // still starts at seq 0 — and fail the campaign when it does not.
  util::Status snapshot_status;
  // Completion records in the file, and the seq of the first. Format v1
  // (and uncompacted v2) journals start at seq 0; a compacted journal's
  // trace starts at the seq its snapshot established. Contiguous either
  // way.
  uint64_t num_completions = 0;
  uint64_t first_seq = 0;
  // Bytes of the file occupied by intact records; pass to
  // JournalWriter::Open(truncate_to) when resuming the journal.
  int64_t valid_bytes = 0;
  // OK when the file ended exactly on a record boundary; kCorruption when
  // a torn or bit-flipped tail was dropped (valid_bytes excludes it).
  util::Status tail_status;
};

// Walks `cursor` to its end, checking every record it yields against the
// record rules and decoding each in place, and fills `out`. A torn/corrupt
// *tail* degrades gracefully (tail_status, valid_bytes); damage before it
// fails. The journal reader's one entry point: ScanJournal and ReadJournal
// run it over a file, the fuzz targets over bytes in memory.
util::Status ScanFrames(FrameCursor* cursor, JournalSummary* out);

// ScanFrames over the file at `path`, keeping no record but the submit.
util::Result<JournalSummary> ScanJournal(const std::string& path);

// A whole journal, parsed: the summary plus the records themselves.
struct JournalContents : JournalSummary {
  // The snapshot at snapshot_offset, when has_snapshot.
  SnapshotRecord snapshot;
  // Completions in seq order.
  std::vector<CompletionRecord> completions;
};

// ScanJournal that also keeps the latest good snapshot and every
// completion.
util::Result<JournalContents> ReadJournal(const std::string& path);

}  // namespace persist
}  // namespace incentag

#endif  // INCENTAG_PERSIST_JOURNAL_H_
