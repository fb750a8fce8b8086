#include "src/util/file_io.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/fail_point.h"

namespace incentag {
namespace util {

namespace fs = std::filesystem;

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  const int err = errno;
  return Status::IoError(op + " " + path + ": " + std::strerror(err), err);
}

// Fault-injection sites for the whole append-file surface (ISSUE 10).
// One point per syscall kind; the persist and service layers above are
// hardened against exactly the failures these can synthesize.
INCENTAG_FAIL_POINT_DEFINE(g_fail_open, "file_io/open");
INCENTAG_FAIL_POINT_DEFINE(g_fail_pwritev, "file_io/pwritev");
INCENTAG_FAIL_POINT_DEFINE(g_fail_fsync, "file_io/fsync");
INCENTAG_FAIL_POINT_DEFINE(g_fail_fdatasync, "file_io/fdatasync");
INCENTAG_FAIL_POINT_DEFINE(g_fail_syncdir, "file_io/syncdir");

// Evaluates a sync-shaped fail point: kErrno skips the syscall and
// fails; kTornSync really syncs first (the data is durable) and then
// reports failure anyway — the shape fsyncgate hardening must survive.
// Returns true when the site should report failure with errno set.
bool SyncFaultFired(FailPoint& point, int fd, bool data_only) {
  FailPoint::Fault fault;
  if (!INCENTAG_FAIL_POINT_FIRED(point, &fault)) return false;
  if (fault.shape == FailPoint::Shape::kShortWrite) return false;
  if (fault.shape == FailPoint::Shape::kTornSync) {
    if (data_only) {
      ::fdatasync(fd);
    } else {
      ::fsync(fd);
    }
  }
  errno = fault.err;
  return true;
}

}  // namespace

Status CreateDirectories(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("create_directories " + dir + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirFiles(const std::string& dir,
                                              std::string_view suffix) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("opendir " + dir + ": " + ec.message());
  }
  std::vector<std::string> out;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string path = entry.path().string();
    if (!suffix.empty()) {
      if (path.size() < suffix.size() ||
          path.compare(path.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
    }
    out.push_back(std::move(path));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("open " + path + " for read failed");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read " + path + " failed");
  }
  return std::move(contents).str();
}

Result<std::string> ReadFileRange(const std::string& path, int64_t offset,
                                  int64_t length) {
  if (offset < 0 || length < 0) {
    return Status::InvalidArgument("negative file range");
  }
  ReadableFile file;
  INCENTAG_RETURN_IF_ERROR(file.Open(path));
  std::string out(static_cast<size_t>(length), '\0');
  INCENTAG_RETURN_IF_ERROR(file.ReadAt(offset, out.size(), out.data()));
  return out;
}

ReadableFile::~ReadableFile() {
  if (fd_ >= 0) ::close(fd_);
}

ReadableFile& ReadableFile::operator=(ReadableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    size_ = other.size_;
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

Status ReadableFile::Open(const std::string& path) {
  if (fd_ >= 0) return Status::FailedPrecondition("ReadableFile already open");
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return ErrnoStatus("open", path);
  path_ = path;
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return ErrnoStatus("lseek", path);
  size_ = static_cast<int64_t>(end);
  return Status::OK();
}

Status ReadableFile::ReadAt(int64_t offset, size_t length, char* dst) const {
  size_t have = 0;
  while (have < length) {
    const ssize_t n =
        ::pread(fd_, dst + have, length - have,
                static_cast<off_t>(offset + static_cast<int64_t>(have)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path_);
    }
    if (n == 0) {
      return Status::OutOfRange(
          "short read at offset " +
          std::to_string(offset + static_cast<int64_t>(have)) + " of " +
          path_);
    }
    have += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IoError("remove " + path + ": " + ec.message());
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", from + " -> " + to);
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", dir);
  Status status;
  if (SyncFaultFired(g_fail_syncdir, fd, /*data_only=*/false) ||
      ::fsync(fd) != 0) {
    status = ErrnoStatus("fsync", dir);
  }
  ::close(fd);
  return status;
}

AppendFile::~AppendFile() { Close(); }

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    // Best effort; an unsynced buffer was the caller's choice. Close
    // also frees this buffer's capacity, which moving other's in would
    // keep when other's buffer is short enough to be stored inline.
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    buffer_ = std::move(other.buffer_);
    size_ = other.size_;
    other.fd_ = -1;
    other.path_.clear();
    other.buffer_.clear();
    other.size_ = 0;
  }
  return *this;
}

Status AppendFile::Open(const std::string& path, int64_t truncate_to) {
  if (is_open()) return Status::FailedPrecondition("AppendFile already open");
  FailPoint::Fault fault;
  if (INCENTAG_FAIL_POINT_FIRED(g_fail_open, &fault) &&
      fault.shape == FailPoint::Shape::kErrno) {
    errno = fault.err;
    return ErrnoStatus("open", path);
  }
  // O_RDWR, not O_WRONLY: ReopenAndRestore() reads the unsynced range
  // back through this same descriptor (pread needs read permission on
  // the fd).
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return ErrnoStatus("open", path);
  path_ = path;
  if (truncate_to >= 0) {
    // A recovered journal mostly reopens at its own size. ftruncate then
    // changes no byte but still stamps the inode's times, which the next
    // Sync must write, so it runs only when the size differs.
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      Status status = ErrnoStatus("fstat", path);
      Close();
      return status;
    }
    if (st.st_size != static_cast<off_t>(truncate_to) &&
        ::ftruncate(fd_, static_cast<off_t>(truncate_to)) != 0) {
      Status status = ErrnoStatus("ftruncate", path);
      Close();
      return status;
    }
    size_ = truncate_to;
  } else {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      Status status = ErrnoStatus("lseek", path);
      Close();
      return status;
    }
    size_ = static_cast<int64_t>(end);
  }
  // All writes are positioned (pwritev at write_offset()), so the fd's
  // own position is never consulted again.
  return Status::OK();
}

Status AppendFile::Append(std::string_view data) {
  if (!is_open()) return Status::FailedPrecondition("AppendFile not open");
  buffer_.append(data.data(), data.size());
  size_ += static_cast<int64_t>(data.size());
  return Status::OK();
}

Status AppendFile::AppendGather(std::span<const std::string_view> pieces) {
  if (!is_open()) return Status::FailedPrecondition("AppendFile not open");
  // The pieces are logically accepted up front, like Append: size()
  // counts them even if the write below fails part-way, because the
  // unwritten remainder is retained in the buffer and the next
  // Flush/Sync writes each byte exactly once.
  const int64_t start = write_offset();
  int64_t added = 0;
  for (std::string_view piece : pieces) {
    added += static_cast<int64_t>(piece.size());
  }
  size_ += added;
  const size_t total = buffer_.size() + static_cast<size_t>(added);
  if (total == 0) return Status::OK();

  // Gather list: the dirty buffer rides in front of the new pieces, so
  // everything reaches the kernel in one pwritev in the common case.
  constexpr size_t kInlineIov = 8;
  struct iovec inline_iov[kInlineIov];
  std::vector<struct iovec> heap_iov;
  struct iovec* iov = inline_iov;
  if (pieces.size() + 1 > kInlineIov) {
    heap_iov.resize(pieces.size() + 1);
    iov = heap_iov.data();
  }
  int iov_count = 0;
  if (!buffer_.empty()) {
    iov[iov_count++] = {buffer_.data(), buffer_.size()};
  }
  for (std::string_view piece : pieces) {
    if (piece.empty()) continue;
    iov[iov_count++] = {const_cast<char*>(piece.data()), piece.size()};
  }

  size_t written = 0;
  int first = 0;  // first gather entry with unwritten bytes
  while (written < total) {
    struct iovec* window = iov + first;
    int count = iov_count - first;
    FailPoint::Fault fault;
    const bool injected = INCENTAG_FAIL_POINT_FIRED(g_fail_pwritev, &fault);
    // A short-write fault trims the window so one syscall moves at most
    // the armed cap, forcing the resume arithmetic real kernels only
    // exercise under memory pressure or signals.
    struct iovec capped[kInlineIov];
    if (injected && fault.shape == FailPoint::Shape::kShortWrite &&
        fault.max_bytes > 0) {
      size_t budget = static_cast<size_t>(fault.max_bytes);
      int kept = 0;
      while (kept < count && kept < static_cast<int>(kInlineIov) &&
             budget > 0) {
        capped[kept] = window[kept];
        if (capped[kept].iov_len > budget) capped[kept].iov_len = budget;
        budget -= capped[kept].iov_len;
        ++kept;
      }
      window = capped;
      count = kept;
    }
    if (count > IOV_MAX) count = IOV_MAX;
    ssize_t n;
    if (injected && fault.shape == FailPoint::Shape::kErrno) {
      // Injected failures bypass the EINTR-absorb below on purpose: an
      // armed EINTR must surface to the caller, not retry inline.
      errno = fault.err;
      n = -1;
    } else {
      n = ::pwritev(fd_, window, count, static_cast<off_t>(start + written));
      if (n < 0 && errno == EINTR) continue;
    }
    if (n <= 0) {
      Status status = n < 0 ? ErrnoStatus("pwritev", path_)
                            : Status::IoError("pwritev wrote nothing to " +
                                              path_);
      // Retain exactly the unwritten remainder (buffered bytes and piece
      // tails alike) so a retry cannot write any byte twice — the iov
      // entries already point past what reached the kernel.
      std::string remainder;
      remainder.reserve(total - written);
      for (int i = first; i < iov_count; ++i) {
        remainder.append(static_cast<const char*>(iov[i].iov_base),
                         iov[i].iov_len);
      }
      buffer_ = std::move(remainder);
      return status;
    }
    written += static_cast<size_t>(n);
    size_t advance = static_cast<size_t>(n);
    while (advance > 0) {
      if (advance >= iov[first].iov_len) {
        advance -= iov[first].iov_len;
        ++first;
      } else {
        iov[first].iov_base =
            static_cast<char*>(iov[first].iov_base) + advance;
        iov[first].iov_len -= advance;
        advance = 0;
      }
    }
  }
  buffer_.clear();
  return Status::OK();
}

Status AppendFile::Flush() {
  // A flush is a gather of zero new pieces: write the dirty buffer (if
  // any) at its position, with the same partial-write bookkeeping.
  return AppendGather({});
}

Status AppendFile::Sync() {
  INCENTAG_RETURN_IF_ERROR(Flush());
  if (SyncFaultFired(g_fail_fsync, fd_, /*data_only=*/false)) {
    return ErrnoStatus("fsync", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::OK();
}

Status AppendFile::SyncData() {
  INCENTAG_RETURN_IF_ERROR(Flush());
  if (SyncFaultFired(g_fail_fdatasync, fd_, /*data_only=*/true)) {
    return ErrnoStatus("fdatasync", path_);
  }
  if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync", path_);
  return Status::OK();
}

Status AppendFile::ReopenAndRestore(int64_t durable_offset) {
  if (!is_open()) return Status::FailedPrecondition("AppendFile not open");
  if (durable_offset < 0 || durable_offset > write_offset()) {
    return Status::InvalidArgument(
        "durable offset " + std::to_string(durable_offset) +
        " outside flushed range of " + path_);
  }
  // Read the flushed-but-unsynced range back through the old fd first:
  // the failed sync left those pages cache-resident (possibly marked
  // clean without reaching the platter), and this read is the only
  // remaining copy of them.
  std::string tail;
  const int64_t flushed_tail = write_offset() - durable_offset;
  if (flushed_tail > 0) {
    INCENTAG_RETURN_IF_ERROR(ReadAt(durable_offset, flushed_tail, &tail));
  }
  tail.append(buffer_);
  // Raw close, not Close(): Close() flushes the buffer through the
  // descriptor this routine exists to distrust.
  ::close(fd_);
  fd_ = -1;
  const std::string path = path_;
  const int64_t logical_size = size_;
  buffer_.clear();
  size_ = 0;
  INCENTAG_RETURN_IF_ERROR(Open(path, durable_offset));
  buffer_ = std::move(tail);
  size_ = logical_size;
  return Status::OK();
}

Status AppendFile::ReadAt(int64_t offset, int64_t length,
                          std::string* out) const {
  if (!is_open()) return Status::FailedPrecondition("AppendFile not open");
  if (offset < 0 || length < 0) {
    return Status::InvalidArgument("negative file range");
  }
  out->resize(static_cast<size_t>(length));
  size_t have = 0;
  while (have < out->size()) {
    const ssize_t n =
        ::pread(fd_, out->data() + have, out->size() - have,
                static_cast<off_t>(offset + static_cast<int64_t>(have)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path_);
    }
    if (n == 0) {
      return Status::OutOfRange(
          "short read at offset " +
          std::to_string(offset + static_cast<int64_t>(have)) + " of " +
          path_);
    }
    have += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status AppendFile::Close() {
  Status status;
  if (is_open()) {
    status = Flush();
    if (::close(fd_) != 0 && status.ok()) {
      status = ErrnoStatus("close", path_);
    }
    fd_ = -1;
  }
  // A closed file writes nothing more, so its buffer's capacity goes too.
  // Explicitly: assigning or moving an empty string in keeps it.
  buffer_.clear();
  buffer_.shrink_to_fit();
  return status;
}

}  // namespace util
}  // namespace incentag
