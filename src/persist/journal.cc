#include "src/persist/journal.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/crc32.h"
#include "src/util/fail_point.h"
#include "src/util/wire.h"

namespace incentag {
namespace persist {

namespace {

using util::wire::PutDouble;
using util::wire::PutI64;
using util::wire::PutString;
using util::wire::PutU32;
using util::wire::PutU64;
using util::wire::PutU8;
using util::wire::Reader;

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc
// Frame header + u8 type + u64 seq + u32 resource.
static_assert(kFramedCompletionBytes == kFrameHeaderBytes + 1 + 8 + 4);

// Dirty-buffer bound for the batched append path: below this a quantum
// coalesces in the writer buffer for the sink's next window flush; at
// or past it the append flushes inline (one gathered pwritev). Sized
// well above a window's worth of records at any realistic rate, so the
// inline path only triggers when no sink is draining the buffer.
constexpr int64_t kGatherFlushBytes = 32 << 10;

// Fault-injection sites for the compaction rewrite (ISSUE 10): the
// fsync of the rewrite and the atomic rename are the two syscalls whose
// failure must leave the old journal fully intact.
INCENTAG_FAIL_POINT_DEFINE(g_fail_compact_rewrite, "compactor/rewrite");
INCENTAG_FAIL_POINT_DEFINE(g_fail_compact_rename, "compactor/rename");

}  // namespace

// ---- record bodies ----------------------------------------------------

std::string EncodeSubmitRecord(const SubmitRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(RecordType::kSubmit));
  PutU32(&out, record.format_version);
  PutString(&out, record.name);
  PutString(&out, record.strategy_name);
  PutU64(&out, record.seed);
  PutI64(&out, record.options.budget);
  PutU32(&out, static_cast<uint32_t>(record.options.omega));
  PutI64(&out, record.options.under_tagged_threshold);
  PutI64(&out, record.options.batch_size);
  PutU32(&out, static_cast<uint32_t>(record.options.checkpoints.size()));
  for (int64_t checkpoint : record.options.checkpoints) {
    PutI64(&out, checkpoint);
  }
  // Format v3: the scheduling class. Honor the record's own version —
  // compaction re-encodes a recovered journal's SubmitRecord verbatim,
  // and a v2 record must stay a v2 body (no trailing bytes) or the
  // rewritten journal would no longer decode.
  if (record.format_version >= 3) {
    PutU32(&out, static_cast<uint32_t>(record.options.priority));
    PutDouble(&out, record.options.deadline_seconds);
  }
  return out;
}

std::string EncodeCompletionRecord(const CompletionRecord& record) {
  std::string out;
  EncodeCompletionRecordTo(record, &out);
  return out;
}

void EncodeCompletionRecordTo(const CompletionRecord& record,
                              std::string* out) {
  PutU8(out, static_cast<uint8_t>(RecordType::kCompletion));
  PutU64(out, record.seq);
  PutU32(out, record.resource);
}

std::string EncodeSnapshotRecord(const SnapshotRecord& record) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(RecordType::kSnapshot));
  PutU32(&out, record.format_version);
  PutU64(&out, record.num_completions);
  PutU64(&out, record.next_assign_seq);
  PutU32(&out, static_cast<uint32_t>(record.pending.size()));
  for (core::ResourceId resource : record.pending) {
    PutU32(&out, resource);
  }
  PutString(&out, record.runtime_state);
  return out;
}

util::Status DecodeSubmitRecord(std::string_view body, SubmitRecord* out) {
  Reader in(body);
  uint8_t type;
  if (!in.GetU8(&type) ||
      type != static_cast<uint8_t>(RecordType::kSubmit)) {
    return util::Status::Corruption("not a submit record");
  }
  uint32_t omega = 0;
  uint32_t num_checkpoints = 0;
  if (!in.GetU32(&out->format_version) || !in.GetString(&out->name) ||
      !in.GetString(&out->strategy_name) || !in.GetU64(&out->seed) ||
      !in.GetI64(&out->options.budget) || !in.GetU32(&omega) ||
      !in.GetI64(&out->options.under_tagged_threshold) ||
      !in.GetI64(&out->options.batch_size) || !in.GetU32(&num_checkpoints)) {
    return util::Status::Corruption("short submit record");
  }
  // v1 and v2 submit bodies are identical; v3 appends the scheduling
  // class. Only future majors are unreadable.
  if (out->format_version > kJournalFormatVersion) {
    return util::Status::Corruption(
        "unsupported journal format version " +
        std::to_string(out->format_version));
  }
  out->options.omega = static_cast<int>(omega);
  // Each checkpoint takes 8 bytes: a count the body cannot hold is
  // damage, and must not size an allocation.
  if (in.remaining() / 8 < num_checkpoints) {
    return util::Status::Corruption("short submit record checkpoints");
  }
  out->options.checkpoints.clear();
  out->options.checkpoints.reserve(num_checkpoints);
  for (uint32_t i = 0; i < num_checkpoints; ++i) {
    int64_t checkpoint;
    if (!in.GetI64(&checkpoint)) {
      return util::Status::Corruption("short submit record checkpoints");
    }
    out->options.checkpoints.push_back(checkpoint);
  }
  // Pre-scheduler journals (v1/v2) default to the baseline scheduling
  // class: priority 1, no deadline.
  out->options.priority = 1;
  out->options.deadline_seconds = 0.0;
  if (out->format_version >= 3) {
    uint32_t priority = 0;
    if (!in.GetU32(&priority) ||
        !in.GetDouble(&out->options.deadline_seconds)) {
      return util::Status::Corruption("short submit record scheduling class");
    }
    out->options.priority = static_cast<int32_t>(priority);
  }
  if (!in.exhausted()) {
    return util::Status::Corruption("trailing bytes in submit record");
  }
  return util::Status::OK();
}

util::Status DecodeCompletionRecord(std::string_view body,
                                    CompletionRecord* out) {
  Reader in(body);
  uint8_t type;
  if (!in.GetU8(&type) ||
      type != static_cast<uint8_t>(RecordType::kCompletion)) {
    return util::Status::Corruption("not a completion record");
  }
  if (!in.GetU64(&out->seq) || !in.GetU32(&out->resource) ||
      !in.exhausted()) {
    return util::Status::Corruption("malformed completion record");
  }
  return util::Status::OK();
}

util::Status DecodeSnapshotView(std::string_view body, SnapshotView* out) {
  Reader in(body);
  uint8_t type;
  if (!in.GetU8(&type) ||
      type != static_cast<uint8_t>(RecordType::kSnapshot)) {
    return util::Status::Corruption("not a snapshot record");
  }
  uint32_t num_pending = 0;
  if (!in.GetU32(&out->format_version) ||
      out->format_version > kJournalFormatVersion ||
      !in.GetU64(&out->num_completions) || !in.GetU64(&out->next_assign_seq) ||
      !in.GetU32(&num_pending)) {
    return util::Status::Corruption("malformed snapshot record header");
  }
  if (out->next_assign_seq != out->num_completions + num_pending) {
    return util::Status::Corruption(
        "snapshot record seq accounting is inconsistent");
  }
  // Each pending id takes 4 bytes; a count the body cannot hold is
  // damage, and is never used to size anything.
  if (!in.GetBytesView(size_t{4} * num_pending, &out->pending)) {
    return util::Status::Corruption("short snapshot record pending set");
  }
  if (!in.GetStringView(&out->runtime_state) || !in.exhausted()) {
    return util::Status::Corruption("malformed snapshot record state");
  }
  return util::Status::OK();
}

SnapshotRecord SnapshotView::Header() const {
  SnapshotRecord record;
  record.format_version = format_version;
  record.num_completions = num_completions;
  record.next_assign_seq = next_assign_seq;
  record.pending.reserve(pending.size() / 4);
  Reader in(pending);
  core::ResourceId resource = core::kInvalidResource;
  while (in.GetU32(&resource)) record.pending.push_back(resource);
  return record;
}

util::Status DecodeSnapshotRecord(std::string_view body, SnapshotRecord* out) {
  SnapshotView view;
  INCENTAG_RETURN_IF_ERROR(DecodeSnapshotView(body, &view));
  *out = view.Header();
  out->runtime_state.assign(view.runtime_state);
  return util::Status::OK();
}

namespace {

// Appends the [len][crc] header that frames `body` to `out`.
void AppendFrameHeader(std::string_view body, std::string* out) {
  const size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(body.size()));
  // The CRC covers the length word too, so a bit-flip in the length is
  // detected like any payload damage instead of silently reframing.
  uint32_t crc = util::Crc32(out->data() + start, 4);
  crc = util::Crc32(body, crc);
  PutU32(out, crc);
}

// Compaction copies the tail verbatim, so every byte it copies must be
// whole frames that pass their CRC: otherwise the rewrite would carry a
// damaged or misaligned tail into the file that replaces a good journal.
// `bytes` sit at file offset `offset`.
util::Status CheckTailFrames(std::string_view bytes, int64_t offset) {
  FrameCursor cursor(bytes, offset);
  while (cursor.Next()) {
  }
  INCENTAG_RETURN_IF_ERROR(cursor.status());
  if (!cursor.tail_status().ok()) {
    return util::Status::Corruption("compaction tail is not whole frames: " +
                                    cursor.tail_status().ToString());
  }
  return util::Status::OK();
}

// The delta Compact copies under the writer lock is this writer's own
// appends since the bulk copy, framed and CRC'd as they were appended.
// Only their framing is checked, so appenders never wait on a second
// CRC pass over bytes just written. `bytes` sit at file offset `offset`.
util::Status CheckDeltaFraming(std::string_view bytes, int64_t offset) {
  size_t pos = 0;
  while (bytes.size() - pos >= kFrameHeaderBytes) {
    Reader header(bytes.substr(pos, 4));
    uint32_t length = 0;
    header.GetU32(&length);
    pos += kFrameHeaderBytes + length;
    if (pos > bytes.size()) break;
  }
  if (pos != bytes.size()) {
    return util::Status::Corruption(
        "compaction delta at offset " + std::to_string(offset) +
        " is not whole frames");
  }
  return util::Status::OK();
}

// Patches a little-endian u32 over already-appended bytes.
void PatchU32(std::string* out, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*out)[pos + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

}  // namespace

std::string FrameRecord(std::string_view body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(body, &frame);
  frame.append(body.data(), body.size());
  return frame;
}

void AppendFramedCompletionRecord(const CompletionRecord& record,
                                  std::string* out) {
  const size_t frame_start = out->size();
  out->append(kFrameHeaderBytes, '\0');  // length + crc, backfilled below
  EncodeCompletionRecordTo(record, out);
  const uint32_t length =
      static_cast<uint32_t>(out->size() - frame_start - kFrameHeaderBytes);
  PatchU32(out, frame_start, length);
  uint32_t crc = util::Crc32(out->data() + frame_start, 4);
  crc = util::Crc32(out->data() + frame_start + kFrameHeaderBytes, length,
                    crc);
  PatchU32(out, frame_start + 4, crc);
}

// ---- writer ------------------------------------------------------------

util::Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path, int64_t truncate_to) {
  std::unique_ptr<JournalWriter> writer(new JournalWriter(path));
  util::MutexLock lock(&writer->mu_);
  INCENTAG_RETURN_IF_ERROR(writer->file_.Open(path, truncate_to));
  // Open's preconditions (Submit syncs before sharing the writer;
  // recovery resumes from bytes that survived a crash) make the whole
  // opening size the durable anchor.
  writer->durable_size_ = writer->file_.size();
  return writer;
}

namespace {
obs::Counter* AppendBytesCounter() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "incentag_persist_append_bytes_total",
      "Framed bytes appended to campaign journals");
  return counter;
}
}  // namespace

util::Status JournalWriter::AppendFramed(std::string_view body) {
  const std::string frame = FrameRecord(body);
  AppendBytesCounter()->Add(static_cast<int64_t>(frame.size()));
  util::MutexLock lock(&mu_);
  return file_.Append(frame);
}

util::Status JournalWriter::AppendSubmit(const SubmitRecord& record) {
  return AppendFramed(EncodeSubmitRecord(record));
}

util::Status JournalWriter::AppendCompletion(const CompletionRecord& record) {
  return AppendFramed(EncodeCompletionRecord(record));
}

util::Status JournalWriter::AppendCompletionBatch(
    const CompletionRecord* records, size_t count) {
  if (count == 0) return util::Status::OK();
  // Reused per thread: each campaign's stepper encodes its quantum here,
  // so steady-state appends touch no allocator at all (the arena keeps
  // its high-water capacity).
  thread_local std::string arena;
  arena.clear();
  for (size_t i = 0; i < count; ++i) {
    AppendFramedCompletionRecord(records[i], &arena);
  }
  AppendBytesCounter()->Add(static_cast<int64_t>(arena.size()));
  // At most one syscall per quantum, usually zero: a small quantum just
  // lands in the writer buffer (memcpy) and rides the next window
  // commit — the sink's SyncData flushes the buffer as part of the
  // fsync it already pays for, so steady-state appends cost the workers
  // no kernel crossing at all. A quantum that pushes
  // the dirty tail past kGatherFlushBytes (a sink stalled or absent)
  // flushes inline as one gathered pwritev — the buffer plus the arena
  // in a single syscall, never copying the arena into the buffer. The
  // on-disk bytes are identical either way.
  const std::string_view piece(arena);
  util::MutexLock lock(&mu_);
  if (file_.buffered_bytes() + static_cast<int64_t>(piece.size()) <
      kGatherFlushBytes) {
    return file_.Append(piece);
  }
  return file_.AppendGather({&piece, 1});
}

util::Status JournalWriter::AppendCancel() {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(RecordType::kCancel));
  return AppendFramed(body);
}

util::Status JournalWriter::Flush() {
  util::MutexLock lock(&mu_);
  if (closed_) return util::Status::OK();
  return file_.Flush();
}

util::Status JournalWriter::SyncOwedDir() {
  if (!dir_sync_owed_) return util::Status::OK();
  const size_t slash = path_.find_last_of('/');
  INCENTAG_RETURN_IF_ERROR(util::SyncDir(
      slash == std::string::npos ? "." : path_.substr(0, slash)));
  dir_sync_owed_ = false;
  return util::Status::OK();
}

util::Status JournalWriter::Sync() {
  util::MutexLock lock(&mu_);
  if (closed_) return util::Status::OK();
  INCENTAG_RETURN_IF_ERROR(SyncOwedDir());
  INCENTAG_RETURN_IF_ERROR(file_.Sync());
  durable_size_ = file_.size();
  return util::Status::OK();
}

util::Status JournalWriter::SyncData() {
  util::MutexLock lock(&mu_);
  if (closed_) return util::Status::OK();
  INCENTAG_RETURN_IF_ERROR(SyncOwedDir());
  INCENTAG_RETURN_IF_ERROR(file_.SyncData());
  durable_size_ = file_.size();
  return util::Status::OK();
}

util::Status JournalWriter::RecoverAfterSyncFailure() {
  util::MutexLock lock(&mu_);
  return file_.ReopenAndRestore(durable_size_);
}

util::Status JournalWriter::Close() {
  util::MutexLock lock(&mu_);
  if (closed_) return util::Status::OK();
  closed_ = true;
  return file_.Close();
}

int64_t JournalWriter::buffered_bytes() {
  util::MutexLock lock(&mu_);
  return file_.buffered_bytes();
}

int64_t JournalWriter::size() {
  util::MutexLock lock(&mu_);
  return file_.size();
}

util::Status JournalWriter::Compact(const SubmitRecord& submit,
                                    const SnapshotRecord& snapshot,
                                    int64_t tail_offset) {
  static obs::Histogram* compact_seconds =
      obs::Registry::Default().GetHistogram(
          "incentag_persist_compaction_seconds",
          "Wall time of a journal compaction rewrite",
          obs::LatencyBoundsSeconds());
  static obs::Counter* compactions = obs::Registry::Default().GetCounter(
      "incentag_persist_compactions_total",
      "Completed journal compaction rewrites");
  static obs::Counter* bytes_reclaimed = obs::Registry::Default().GetCounter(
      "incentag_persist_compaction_bytes_reclaimed_total",
      "Journal bytes dropped by compaction (replayed prefix minus "
      "snapshot)");
  obs::TraceSpan span("compact");
  obs::ScopedTimer timer(compact_seconds);
  const std::string tmp_path = path_ + kCompactionTmpSuffix;
  // Every write below goes straight to the kernel (AppendGather), so the
  // rewrite's buffer never grows and the writer that adopts it holds no
  // copy of the snapshot or the tail. The snapshot body is written from
  // where it was encoded, behind the framed submit and its own header.
  const std::string snapshot_body = EncodeSnapshotRecord(snapshot);
  std::string head = FrameRecord(EncodeSubmitRecord(submit));
  AppendFrameHeader(snapshot_body, &head);
  const std::string_view prefix[] = {head, snapshot_body};
  const int64_t prefix_bytes =
      static_cast<int64_t>(head.size() + snapshot_body.size());

  // Phase 1, without the writer lock: push everything appended so far to
  // the kernel and copy the bulk of the tail. Appends racing with this
  // copy only extend the file past `flushed`; phase 2 picks them up. A
  // closed writer is refused before the rewrite file exists.
  int64_t flushed = 0;
  {
    util::MutexLock lock(&mu_);
    if (closed_) return util::Status::FailedPrecondition("journal closed");
    INCENTAG_RETURN_IF_ERROR(file_.Flush());
    flushed = file_.size();
  }
  if (tail_offset < 0 || tail_offset > flushed) {
    return util::Status::InvalidArgument(
        "compaction tail offset " + std::to_string(tail_offset) +
        " out of range for journal of " + std::to_string(flushed) + " bytes");
  }
  // Every failure from here on leaves the journal as it was and removes
  // the partial rewrite; only the rename makes the rewrite the journal.
  util::AppendFile tmp;
  struct RemoveUnlessRenamed {
    util::AppendFile* file;
    const std::string* path;
    bool renamed = false;
    ~RemoveUnlessRenamed() {
      if (renamed) return;
      file->Close();
      util::RemoveFile(*path);
    }
  } rewrite{&tmp, &tmp_path};
  INCENTAG_RETURN_IF_ERROR(tmp.Open(tmp_path, /*truncate_to=*/0));
  INCENTAG_RETURN_IF_ERROR(tmp.AppendGather(prefix));
  if (tail_offset < flushed) {
    auto bulk =
        util::ReadFileRange(path_, tail_offset, flushed - tail_offset);
    if (!bulk.ok()) return bulk.status();
    const std::string_view piece = bulk.value();
    INCENTAG_RETURN_IF_ERROR(CheckTailFrames(piece, tail_offset));
    INCENTAG_RETURN_IF_ERROR(tmp.AppendGather({&piece, 1}));
  }

  // Phase 2, under the writer lock: copy the delta appended during phase
  // 1, make the rewrite durable and swap it in. Appenders stall for one
  // small copy + fsync + rename, not for the bulk copy and its CRC walk
  // above.
  util::MutexLock lock(&mu_);
  if (closed_) return util::Status::FailedPrecondition("journal closed");
  INCENTAG_RETURN_IF_ERROR(file_.Flush());
  const int64_t final_size = file_.size();
  if (final_size > flushed) {
    auto delta = util::ReadFileRange(path_, flushed, final_size - flushed);
    if (!delta.ok()) return delta.status();
    const std::string_view piece = delta.value();
    INCENTAG_RETURN_IF_ERROR(CheckDeltaFraming(piece, flushed));
    INCENTAG_RETURN_IF_ERROR(tmp.AppendGather({&piece, 1}));
  }
  util::FailPoint::Fault fault;
  if (INCENTAG_FAIL_POINT_FIRED(g_fail_compact_rewrite, &fault) &&
      fault.shape == util::FailPoint::Shape::kErrno) {
    errno = fault.err;
    return util::Status::IoError(
        "fsync " + tmp_path + ": " + std::strerror(fault.err), fault.err);
  }
  INCENTAG_RETURN_IF_ERROR(tmp.Sync());
  if (INCENTAG_FAIL_POINT_FIRED(g_fail_compact_rename, &fault) &&
      fault.shape == util::FailPoint::Shape::kErrno) {
    errno = fault.err;
    return util::Status::IoError(
        "rename " + tmp_path + ": " + std::strerror(fault.err), fault.err);
  }
  INCENTAG_RETURN_IF_ERROR(util::RenameFile(tmp_path, path_));
  rewrite.renamed = true;
  // Swap the writer onto the rewrite's still-open descriptor at once —
  // it now backs `path_` — and drop the old one, which points at the
  // replaced file where appends would vanish. Adopting the open fd
  // instead of close-then-reopen leaves no window in which a transient
  // open failure could strand an otherwise healthy writer.
  file_ = std::move(tmp);
  file_.set_path(path_);
  // The rewrite is fully durable (tmp.Sync() above): the durable anchor
  // for any later failed-sync recovery is the whole new file.
  durable_size_ = file_.size();
  // The rename must be durable before anyone relies on the dropped
  // prefix being gone; the containing directory carries that entry. A
  // failed fsync here stays owed, so no later sync of this writer can
  // succeed without it.
  dir_sync_owed_ = true;
  INCENTAG_RETURN_IF_ERROR(SyncOwedDir());
  compactions->Increment();
  const int64_t reclaimed = tail_offset - prefix_bytes;
  if (reclaimed > 0) bytes_reclaimed->Add(reclaimed);
  span.set_arg(reclaimed);
  return util::Status::OK();
}

// ---- reader ------------------------------------------------------------

namespace {

// Bytes the cursor reads from a file at a time; a larger record is read
// whole.
constexpr int64_t kWindowBytes = 64 << 10;

}  // namespace

FrameCursor::FrameCursor(std::string_view bytes, int64_t base)
    : bytes_(bytes),
      data_start_(base),
      pos_(base),
      end_(base + static_cast<int64_t>(bytes.size())) {}

util::Result<FrameCursor> FrameCursor::Open(const std::string& path,
                                            int64_t offset, int64_t end) {
  FrameCursor cursor;
  cursor.from_file_ = true;
  INCENTAG_RETURN_IF_ERROR(cursor.file_.Open(path));
  const int64_t size = cursor.file_.size();
  if (end < 0) end = size;
  if (offset < 0 || offset > end || end > size) {
    return util::Status::OutOfRange(
        "frame range [" + std::to_string(offset) + ", " +
        std::to_string(end) + ") outside " + path + " of " +
        std::to_string(size) + " bytes");
  }
  cursor.data_start_ = offset;
  cursor.pos_ = offset;
  cursor.end_ = end;
  return cursor;
}

bool FrameCursor::Fill(size_t n) {
  const int64_t have_end =
      data_start_ + static_cast<int64_t>(data().size());
  if (pos_ + static_cast<int64_t>(n) <= have_end) return true;
  // Only a file cursor gets here: Next() checks every length against
  // end_, and a memory cursor holds all bytes up to end_.
  const size_t want = std::max(
      n, static_cast<size_t>(std::min(kWindowBytes, end_ - pos_)));
  window_.resize(want);
  status_ = file_.ReadAt(pos_, want, window_.data());
  if (!status_.ok()) {
    done_ = true;
    return false;
  }
  data_start_ = pos_;
  return true;
}

bool FrameCursor::Next() {
  body_ = {};
  if (done_) return false;
  if (pos_ == end_) {
    done_ = true;
    return false;
  }
  // A short header or short payload is a torn tail write: stop before it.
  if (end_ - pos_ < static_cast<int64_t>(kFrameHeaderBytes)) {
    tail_status_ = util::Status::Corruption("torn frame header at offset " +
                                            std::to_string(pos_));
    done_ = true;
    return false;
  }
  if (!Fill(kFrameHeaderBytes)) return false;
  Reader header(data().substr(static_cast<size_t>(pos_ - data_start_),
                              kFrameHeaderBytes));
  uint32_t length = 0;
  uint32_t crc = 0;
  header.GetU32(&length);
  header.GetU32(&crc);
  const int64_t frame_end =
      pos_ + static_cast<int64_t>(kFrameHeaderBytes) + length;
  if (frame_end > end_) {
    tail_status_ = util::Status::Corruption(
        "torn record payload at offset " + std::to_string(pos_));
    done_ = true;
    return false;
  }
  if (!Fill(kFrameHeaderBytes + length)) return false;
  const std::string_view frame =
      data().substr(static_cast<size_t>(pos_ - data_start_),
                    kFrameHeaderBytes + length);
  const std::string_view body = frame.substr(kFrameHeaderBytes);
  // The CRC covers the length word too, so a damaged length cannot
  // silently reframe the stream.
  if (util::Crc32(body, util::Crc32(frame.substr(0, 4))) != crc) {
    done_ = true;
    // A torn append is a *prefix* of a valid record, so a fully present
    // frame with a bad CRC can only be the unsynced garbage at the
    // physical end of the file. The same damage followed by more data is
    // mid-journal bit rot: fsynced records after it would be silently
    // truncated if we called it a tail, so fail loudly.
    if (frame_end == end_) {
      tail_status_ = util::Status::Corruption("crc mismatch at offset " +
                                              std::to_string(pos_));
    } else {
      status_ = util::Status::Corruption(
          "crc mismatch mid-journal at offset " + std::to_string(pos_) +
          (from_file_ ? " of " + file_.path() : std::string()));
    }
    return false;
  }
  offset_ = pos_;
  body_ = body;
  pos_ = frame_end;
  return true;
}

namespace {

// Applies the record rules (see JournalSummary) to every frame `cursor`
// yields, filling `out`. `visit(type, body, completion)` sees each
// completion and each snapshot that decoded, after its checks.
template <typename Visit>
util::Status Walk(FrameCursor* cursor, JournalSummary* out, Visit&& visit) {
  // Next expected completion seq. A decodable snapshot before the first
  // completion re-bases it (the compacted-journal layout); a snapshot
  // that fails to decode leaves the base to the first completion record
  // after it, so the fallback path still sees a contiguous trace.
  uint64_t next_seq = 0;
  bool seq_base_known = true;
  while (cursor->Next()) {
    const std::string_view body = cursor->body();
    const int64_t pos = cursor->offset();
    if (body.empty()) {
      return util::Status::Corruption("empty record at offset " +
                                      std::to_string(pos));
    }
    const auto type = static_cast<RecordType>(static_cast<uint8_t>(body[0]));
    switch (type) {
      case RecordType::kSubmit:
        if (out->has_submit) {
          return util::Status::Corruption("duplicate submit record");
        }
        INCENTAG_RETURN_IF_ERROR(DecodeSubmitRecord(body, &out->submit));
        out->has_submit = true;
        break;
      case RecordType::kCompletion: {
        if (!out->has_submit) {
          return util::Status::Corruption(
              "completion record before submit record");
        }
        if (out->cancelled) {
          return util::Status::Corruption(
              "completion record after cancel record");
        }
        CompletionRecord record;
        INCENTAG_RETURN_IF_ERROR(DecodeCompletionRecord(body, &record));
        if (!seq_base_known) {
          // The base snapshot did not decode; the first completion after
          // it re-anchors the sequence (it is self-describing).
          next_seq = record.seq;
          seq_base_known = true;
        }
        if (record.seq != next_seq) {
          return util::Status::Corruption(
              "completion seq gap at offset " + std::to_string(pos) +
              ": want " + std::to_string(next_seq) + " got " +
              std::to_string(record.seq));
        }
        ++next_seq;
        if (out->num_completions++ == 0) out->first_seq = record.seq;
        visit(type, body, record);
        break;
      }
      case RecordType::kCancel:
        if (!out->has_submit || body.size() != 1) {
          return util::Status::Corruption("malformed cancel record");
        }
        out->cancelled = true;
        break;
      case RecordType::kSnapshot: {
        if (!out->has_submit) {
          return util::Status::Corruption(
              "snapshot record before submit record");
        }
        SnapshotView snapshot;
        util::Status decoded = DecodeSnapshotView(body, &snapshot);
        if (!decoded.ok()) {
          // The frame is intact (CRC passed) but the body is opaque — for
          // example a snapshot written by a newer format. Remember the
          // failure instead of refusing the whole journal: recovery falls
          // back to full replay when the completion trace permits it.
          out->snapshot_status = std::move(decoded);
          if (out->num_completions == 0) seq_base_known = false;
        } else if (out->num_completions > 0 &&
                   snapshot.num_completions != next_seq) {
          // A checkpoint mid-trace must agree with the records around it.
          return util::Status::Corruption(
              "snapshot at offset " + std::to_string(pos) + " claims " +
              std::to_string(snapshot.num_completions) +
              " completions but the journal holds " +
              std::to_string(next_seq));
        } else {
          if (out->num_completions == 0) {
            // Compacted layout: the snapshot establishes the seq base.
            next_seq = snapshot.num_completions;
            seq_base_known = true;
          }
          out->has_snapshot = true;
          out->snapshot_offset = pos;
          visit(type, body, CompletionRecord{});
        }
        break;
      }
      default:
        return util::Status::Corruption(
            "unknown record type " +
            std::to_string(static_cast<uint8_t>(body[0])));
    }
  }
  INCENTAG_RETURN_IF_ERROR(cursor->status());
  out->valid_bytes = cursor->valid_bytes();
  out->tail_status = cursor->tail_status();
  return util::Status::OK();
}

}  // namespace

util::Status ScanFrames(FrameCursor* cursor, JournalSummary* out) {
  return Walk(cursor, out,
              [](RecordType, std::string_view, const CompletionRecord&) {});
}

util::Result<JournalSummary> ScanJournal(const std::string& path) {
  auto cursor = FrameCursor::Open(path);
  if (!cursor.ok()) return cursor.status();
  JournalSummary out;
  INCENTAG_RETURN_IF_ERROR(ScanFrames(&cursor.value(), &out));
  return out;
}

util::Result<JournalContents> ReadJournal(const std::string& path) {
  auto cursor = FrameCursor::Open(path);
  if (!cursor.ok()) return cursor.status();
  JournalContents out;
  INCENTAG_RETURN_IF_ERROR(Walk(
      &cursor.value(), &out,
      [&out](RecordType type, std::string_view body,
             const CompletionRecord& record) {
        if (type == RecordType::kCompletion) {
          out.completions.push_back(record);
        } else {
          // Walk decoded this body already; only the copy is new.
          DecodeSnapshotRecord(body, &out.snapshot);
        }
      }));
  return out;
}

}  // namespace persist
}  // namespace incentag
