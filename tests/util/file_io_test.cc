// AppendFile gathered-append coverage (ISSUE 9): byte-identity of
// AppendGather vs sequential Append+Flush, empty spans, dirty-buffer
// interleaving, short-write resume via the file_io/pwritev fail point
// (ISSUE 10), and the SyncData/ReadAt primitives the journal sink and
// the failed-sync reopen path build on.
#include "src/util/file_io.h"

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/util/fail_point.h"

namespace incentag {
namespace util {
namespace {

// Arms a fail point for the scope of one test body and disarms it on
// every exit path, so a failing assertion cannot leak faults into the
// next test.
class ScopedFailPoint {
 public:
  ScopedFailPoint(const char* name, const FailPoint::Trigger& trigger,
                  const FailPoint::Fault& fault)
      : point_(FailPoint::Find(name)) {
    EXPECT_NE(point_, nullptr) << "unknown fail point " << name;
    if (point_ != nullptr) point_->Arm(trigger, fault);
  }
  ~ScopedFailPoint() {
    if (point_ != nullptr) point_->Disarm();
  }

  FailPoint* point() const { return point_; }

  // Every-pwritev short write capped at `max_bytes`.
  static FailPoint::Trigger Always() { return FailPoint::Trigger{}; }
  static FailPoint::Fault ShortWrite(int64_t max_bytes) {
    FailPoint::Fault fault;
    fault.shape = FailPoint::Shape::kShortWrite;
    fault.max_bytes = max_bytes;
    return fault;
  }

 private:
  FailPoint* point_;
};

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("file_io_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string Contents(const std::string& path) {
    auto data = ReadFileToString(path);
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    return data.ok() ? data.value() : std::string();
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoTest, AppendGatherMatchesSequentialAppendByteForByte) {
  const std::vector<std::string> pieces = {"alpha", "", "bravo-bravo", "c",
                                           std::string(1000, 'x')};

  AppendFile sequential;
  ASSERT_TRUE(sequential.Open(Path("seq"), 0).ok());
  for (const std::string& piece : pieces) {
    ASSERT_TRUE(sequential.Append(piece).ok());
  }
  ASSERT_TRUE(sequential.Flush().ok());
  ASSERT_TRUE(sequential.Close().ok());

  AppendFile gathered;
  ASSERT_TRUE(gathered.Open(Path("gat"), 0).ok());
  std::vector<std::string_view> views(pieces.begin(), pieces.end());
  ASSERT_TRUE(gathered.AppendGather(views).ok());
  EXPECT_EQ(gathered.size(), sequential.size());
  ASSERT_TRUE(gathered.Close().ok());

  EXPECT_EQ(Contents(Path("gat")), Contents(Path("seq")));
}

TEST_F(FileIoTest, AppendGatherEmptySpanAndEmptyPiecesAreNoOps) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ASSERT_TRUE(file.AppendGather({}).ok());
  EXPECT_EQ(file.size(), 0);
  const std::array<std::string_view, 3> empties = {"", "", ""};
  ASSERT_TRUE(file.AppendGather(empties).ok());
  EXPECT_EQ(file.size(), 0);
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), "");
}

TEST_F(FileIoTest, AppendGatherDrainsDirtyBufferFirst) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ASSERT_TRUE(file.Append("buffered-").ok());  // still only in memory
  const std::array<std::string_view, 2> pieces = {"gathered", "!"};
  ASSERT_TRUE(file.AppendGather(pieces).ok());
  // The gather wrote the dirty buffer and the pieces; nothing is pending.
  EXPECT_EQ(file.size(), static_cast<int64_t>(Contents(Path("f")).size()));
  EXPECT_EQ(Contents(Path("f")), "buffered-gathered!");
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FileIoTest, AppendGatherSurvivesInjectedShortWrites) {
  // Cap every pwritev at 3 bytes: each gather must resume mid-piece,
  // exercising the same arithmetic a real short write takes.
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ScopedFailPoint cap("file_io/pwritev", ScopedFailPoint::Always(),
                      ScopedFailPoint::ShortWrite(3));
  ASSERT_TRUE(file.Append("0123456").ok());
  const std::array<std::string_view, 3> pieces = {"abcdefgh", "XY",
                                                  "0123456789"};
  ASSERT_TRUE(file.AppendGather(pieces).ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), "0123456abcdefghXY0123456789");
  // Every write was capped, so the gather took several syscalls — each
  // one a recorded fire.
  EXPECT_GT(cap.point()->fires(), 1u);
}

TEST_F(FileIoTest, ShortWriteCapStressAcrossManyGathers) {
  // Byte-identity against an uncapped writer across many gathers with
  // pieces straddling every cap boundary.
  std::string expect;
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ScopedFailPoint cap("file_io/pwritev", ScopedFailPoint::Always(),
                      ScopedFailPoint::ShortWrite(5));
  for (int i = 0; i < 64; ++i) {
    const std::string a(static_cast<size_t>(i % 11), 'a' + (i % 26));
    const std::string b(static_cast<size_t>((i * 7) % 13), '0' + (i % 10));
    expect += a;
    expect += b;
    const std::array<std::string_view, 2> pieces = {a, b};
    ASSERT_TRUE(file.AppendGather(pieces).ok());
  }
  EXPECT_EQ(file.size(), static_cast<int64_t>(expect.size()));
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), expect);
}

TEST_F(FileIoTest, InjectedWriteErrorRetainsRemainderForExactRetry) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  {
    FailPoint::Fault enospc;
    enospc.shape = FailPoint::Shape::kErrno;
    enospc.err = ENOSPC;
    ScopedFailPoint fp("file_io/pwritev", ScopedFailPoint::Always(),
                       enospc);
    const std::array<std::string_view, 2> pieces = {"hello ", "world"};
    EXPECT_FALSE(file.AppendGather(pieces).ok());
    // The pieces were logically accepted; the unwritten remainder is
    // buffered for a retry that writes every byte exactly once.
    EXPECT_EQ(file.size(), 11);
    EXPECT_EQ(file.buffered_bytes(), 11);
  }
  ASSERT_TRUE(file.Flush().ok());  // disk healthy again
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), "hello world");
}

TEST_F(FileIoTest, ReopenAndRestoreRewritesUntrustedRangeAfterTornSync) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ASSERT_TRUE(file.Append("durable|").ok());
  ASSERT_TRUE(file.SyncData().ok());
  const int64_t durable = file.size();
  ASSERT_TRUE(file.Append("flushed|").ok());
  ASSERT_TRUE(file.Flush().ok());
  ASSERT_TRUE(file.Append("buffered").ok());
  {
    FailPoint::Fault torn;
    torn.shape = FailPoint::Shape::kTornSync;
    torn.err = EIO;
    ScopedFailPoint fp("file_io/fdatasync", ScopedFailPoint::Always(),
                       torn);
    EXPECT_FALSE(file.SyncData().ok());
  }
  // fsyncgate recovery: rebuild on a fresh fd, re-append from the last
  // durable offset. size() is unchanged and everything past `durable`
  // is dirty again.
  ASSERT_TRUE(file.ReopenAndRestore(durable).ok());
  EXPECT_EQ(file.size(), 24);
  EXPECT_EQ(file.buffered_bytes(), 24 - durable);
  ASSERT_TRUE(file.SyncData().ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), "durable|flushed|buffered");
}

TEST_F(FileIoTest, AppendGatherManyPiecesSpillsPastInlineIovArray) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  std::vector<std::string> owned;
  std::string expect;
  for (int i = 0; i < 40; ++i) {  // > the 8-entry inline iovec array
    owned.push_back("p" + std::to_string(i) + ";");
    expect += owned.back();
  }
  std::vector<std::string_view> views(owned.begin(), owned.end());
  ASSERT_TRUE(file.AppendGather(views).ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(Contents(Path("f")), expect);
}

TEST_F(FileIoTest, SyncDataMakesBufferedBytesReadable) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ASSERT_TRUE(file.Append("hello ").ok());
  ASSERT_TRUE(file.SyncData().ok());
  EXPECT_EQ(Contents(Path("f")), "hello ");
  ASSERT_TRUE(file.Append("world").ok());
  ASSERT_TRUE(file.SyncData().ok());
  EXPECT_EQ(Contents(Path("f")), "hello world");
  // Nothing buffered: SyncData is a pure fdatasync.
  ASSERT_TRUE(file.SyncData().ok());
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FileIoTest, ReadAtReadsThroughTheHandleDescriptor) {
  AppendFile file;
  ASSERT_TRUE(file.Open(Path("f"), 0).ok());
  ASSERT_TRUE(file.Append("0123456789").ok());
  ASSERT_TRUE(file.Flush().ok());
  std::string out;
  ASSERT_TRUE(file.ReadAt(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
  ASSERT_TRUE(file.ReadAt(0, 0, &out).ok());
  EXPECT_EQ(out, "");
  // Beyond EOF fails rather than short-reading.
  EXPECT_FALSE(file.ReadAt(8, 5, &out).ok());
  EXPECT_FALSE(file.ReadAt(-1, 2, &out).ok());
  ASSERT_TRUE(file.Close().ok());
}

TEST_F(FileIoTest, ReopenAppendsAtTheEndWithoutSeeking) {
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(Path("f"), 0).ok());
    ASSERT_TRUE(file.Append("first|").ok());
    ASSERT_TRUE(file.Close().ok());
  }
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(Path("f")).ok());  // no truncation: resume
    EXPECT_EQ(file.size(), 6);
    const std::array<std::string_view, 1> pieces = {"second"};
    ASSERT_TRUE(file.AppendGather(pieces).ok());
    ASSERT_TRUE(file.Close().ok());
  }
  EXPECT_EQ(Contents(Path("f")), "first|second");
}

// Recovery reopens most journals at their own size: that Open must not
// touch the inode (ftruncate would stamp its ctime even at the same
// size), while a shorter truncate_to still cuts the file.
TEST_F(FileIoTest, TruncateToTheCurrentSizeLeavesTheInodeAlone) {
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(Path("f"), 0).ok());
    ASSERT_TRUE(file.Append("0123456789").ok());
    ASSERT_TRUE(file.Close().ok());
  }
  struct stat before;
  ASSERT_EQ(::stat(Path("f").c_str(), &before), 0);
  // Past a tick of the kernel's coarse clock, so a stamp would show.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(Path("f"), 10).ok());
    EXPECT_EQ(file.size(), 10);
    ASSERT_TRUE(file.Close().ok());
  }
  struct stat after;
  ASSERT_EQ(::stat(Path("f").c_str(), &after), 0);
  EXPECT_EQ(after.st_ctim.tv_sec, before.st_ctim.tv_sec);
  EXPECT_EQ(after.st_ctim.tv_nsec, before.st_ctim.tv_nsec);
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(Path("f"), 4).ok());
    EXPECT_EQ(file.size(), 4);
    ASSERT_TRUE(file.Append("|x").ok());
    ASSERT_TRUE(file.Close().ok());
  }
  EXPECT_EQ(Contents(Path("f")), "0123|x");
}

// A closed or replaced file frees its buffer's heap, not only its bytes.
// Moving a short (inline) string into a string keeps the target's
// capacity, so a closed journal used to hold its ~40 KB buffer until the
// manager that owned it was destroyed.
TEST_F(FileIoTest, CloseAndMoveAssignmentFreeTheBuffer) {
  const std::string chunk(40 << 10, 'x');
  AppendFile replaced;
  ASSERT_TRUE(replaced.Open(Path("replaced")).ok());
  ASSERT_TRUE(replaced.Append(chunk).ok());
  ASSERT_TRUE(replaced.Flush().ok());
  EXPECT_GE(replaced.buffer_capacity(), chunk.size());  // kept for reuse
  replaced = AppendFile();
  EXPECT_LT(replaced.buffer_capacity(), 64u);
  EXPECT_EQ(Contents(Path("replaced")), chunk);

  AppendFile closed;
  ASSERT_TRUE(closed.Open(Path("closed")).ok());
  ASSERT_TRUE(closed.Append(chunk).ok());
  ASSERT_TRUE(closed.Close().ok());
  EXPECT_LT(closed.buffer_capacity(), 64u);
  EXPECT_EQ(Contents(Path("closed")), chunk);
}

TEST_F(FileIoTest, GatherOnClosedFileFails) {
  AppendFile file;
  const std::array<std::string_view, 1> pieces = {"x"};
  EXPECT_FALSE(file.AppendGather(pieces).ok());
  EXPECT_FALSE(file.SyncData().ok());
  std::string out;
  EXPECT_FALSE(file.ReadAt(0, 1, &out).ok());
}

}  // namespace
}  // namespace util
}  // namespace incentag
