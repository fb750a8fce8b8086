// Durable-file primitives for the persist layer.
//
// AppendFile is the write side of a write-ahead journal: a positioned
// writer (pwrite/pwritev at explicit offsets, no fd seek state) with an
// explicit three-stage durability ladder — Append (buffer in memory) ->
// Flush (write to the kernel) -> Sync/SyncData (fsync/fdatasync to the
// platter). AppendGather is the one-syscall fast path: it hands a span
// of new pieces plus any already-dirty buffered bytes to the kernel in a
// single pwritev (ISSUE 9). The persist::JournalSink batches the
// expensive third stage across campaigns; everything here is synchronous
// and thread-compatible (callers serialise access, see
// persist::JournalWriter for the locked wrapper).
//
// All functions return util::Status instead of throwing; errno is folded
// into the message.
#ifndef INCENTAG_UTIL_FILE_IO_H_
#define INCENTAG_UTIL_FILE_IO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace incentag {
namespace util {

// Creates `dir` and any missing parents. OK if it already exists.
Status CreateDirectories(const std::string& dir);

// Regular files directly inside `dir` whose names end with `suffix`
// (empty suffix = all), as full paths, sorted lexicographically so
// directory scans are deterministic across platforms.
Result<std::vector<std::string>> ListDirFiles(const std::string& dir,
                                              std::string_view suffix = "");

// Whole-file read.
Result<std::string> ReadFileToString(const std::string& path);

// Reads exactly `length` bytes starting at `offset`. Fails (OutOfRange)
// when the file is shorter — the compactor uses this to copy a journal
// tail whose extent it computed under the writer lock, so a short read
// means a logic error, not a benign race.
Result<std::string> ReadFileRange(const std::string& path, int64_t offset,
                                  int64_t length);

// Read-only positioned reader (pread at explicit offsets). The journal's
// frame cursor walks a file through one, a window at a time.
class ReadableFile {
 public:
  ReadableFile() = default;
  ~ReadableFile();

  ReadableFile(const ReadableFile&) = delete;
  ReadableFile& operator=(const ReadableFile&) = delete;
  ReadableFile(ReadableFile&& other) noexcept { *this = std::move(other); }
  ReadableFile& operator=(ReadableFile&& other) noexcept;

  // Opens `path` and records its size.
  Status Open(const std::string& path);

  // Reads exactly `length` bytes at `offset` into `dst`. Fails
  // (OutOfRange) when the file is shorter.
  Status ReadAt(int64_t offset, size_t length, char* dst) const;

  // Size when opened.
  int64_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
  int64_t size_ = 0;
};

// Deletes `path`. OK if it does not exist.
Status RemoveFile(const std::string& path);

// Atomically renames `from` over `to` (POSIX rename: `to` is replaced).
// Durability of the swap additionally needs SyncDir on the directory.
Status RenameFile(const std::string& from, const std::string& to);

// fsyncs the directory itself, making creations/removals of entries in
// it power-loss durable — an fsync of a newly created file covers its
// data, not its directory entry.
Status SyncDir(const std::string& dir);

// Byte-positioned appender. Open() creates the file when missing; when
// `truncate_to` >= 0 the file is first truncated to that many bytes —
// recovery uses this to drop a torn tail record before resuming appends.
// A file already `truncate_to` bytes long is left untouched, its inode
// times included.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile();  // closes without syncing; call Sync() first if you care

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  // Movable: the target closes its own file (best effort) and adopts the
  // source's descriptor. The journal compactor uses this to swap a
  // writer onto the already-open rewrite after rename(), so there is no
  // close-then-reopen window in which a transient failure could strand
  // the writer.
  AppendFile(AppendFile&& other) noexcept { *this = std::move(other); }
  AppendFile& operator=(AppendFile&& other) noexcept;

  Status Open(const std::string& path, int64_t truncate_to = -1);

  // Buffers `data` in memory; cheap, no syscall.
  Status Append(std::string_view data);

  // Gathered append + flush: logically appends every piece, then hands
  // the dirty buffer and the pieces to the kernel in a single pwritev —
  // the on-disk bytes are identical to Append(piece)... + Flush(), but
  // the common case (clean buffer, one piece) is exactly one syscall and
  // the pieces are never copied into the buffer. On success the buffer
  // is empty. On error the unwritten remainder (buffered bytes included)
  // is retained in the buffer, so a later Flush/Sync retry writes every
  // byte exactly once; size() counts the pieces either way.
  Status AppendGather(std::span<const std::string_view> pieces);

  // Pushes the buffer to the kernel with pwrite. Data survives a process
  // crash after Flush, but not a power loss — that needs Sync/SyncData.
  Status Flush();

  // Flush + fsync: data and all metadata are durable when this returns
  // OK.
  Status Sync();

  // Flush + fdatasync: data (and the metadata needed to read it back,
  // i.e. the file size) is durable when this returns OK — the cheap
  // durability point for append-only journals, which never care about
  // timestamps.
  Status SyncData();

  // pread of `length` bytes at `offset` through this handle's
  // descriptor — not the path, which a concurrent rename may have
  // re-pointed. Fails (OutOfRange) when the file is shorter; callers
  // read extents they computed from size() after a Flush.
  Status ReadAt(int64_t offset, int64_t length, std::string* out) const;

  // Recovery after a failed fsync/fdatasync (ISSUE 10). A failed sync
  // poisons the page cache: the kernel may mark the dirty pages clean
  // without having written them, so re-syncing the same fd silently
  // drops data (the fsyncgate failure mode). This routine rebuilds the
  // writer on a fresh descriptor: it reads the flushed-but-unsynced
  // range [durable_offset, write_offset) back through the old fd while
  // the pages are still cache-resident, closes the fd raw (no flush
  // through the untrusted descriptor), reopens the path truncated to
  // `durable_offset`, and restores the read-back bytes plus the old
  // buffer as the new dirty buffer. size() is unchanged; the next
  // Flush/Sync rewrites exactly the untrusted range. On failure the
  // file is closed and the writer is unusable — the caller escalates.
  // A failure to open the new descriptor is kept: every later call
  // returns that I/O error, not "not open", so a caller that classifies
  // it sees a storage fault.
  Status ReopenAndRestore(int64_t durable_offset);

  // Flushes (best effort: on error the unwritten bytes are lost with the
  // descriptor) and closes, and frees the buffer's capacity.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  // Renames the path used in error messages — for callers that moved a
  // descriptor whose file was just rename()d (see the move contract
  // above); it does not touch the filesystem.
  void set_path(std::string path) { path_ = std::move(path); }
  // Bytes accepted so far (buffered + written), i.e. the logical size.
  int64_t size() const { return size_; }
  // Bytes accepted but not yet handed to the kernel — the dirty tail a
  // Flush/AppendGather/Sync would write. Callers batching syscalls (the
  // journal's quantum path) use this to decide when the buffer is worth
  // a gathered write of its own.
  int64_t buffered_bytes() const {
    return static_cast<int64_t>(buffer_.size());
  }
  // Heap the buffer holds, written or not: it stays allocated between
  // flushes and is freed by Close.
  size_t buffer_capacity() const { return buffer_.capacity(); }

 private:
  // Bytes already written to the kernel; the next write lands here.
  int64_t write_offset() const {
    return size_ - static_cast<int64_t>(buffer_.size());
  }

  // What a call on a closed file returns: the I/O error that left it
  // closed (lost_), else FailedPrecondition.
  Status NotOpen() const;

  int fd_ = -1;
  // Set when ReopenAndRestore closed the old descriptor and could not
  // open a new one.
  Status lost_;
  std::string path_;
  std::string buffer_;
  int64_t size_ = 0;
};

}  // namespace util
}  // namespace incentag

#endif  // INCENTAG_UTIL_FILE_IO_H_
