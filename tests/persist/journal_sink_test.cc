// JournalSink group commit: one fdatasync per dirty journal per pass,
// the teardown-straggler metric, and a concurrent Schedule/Drain/Compact
// stress for TSan.
#include "src/persist/journal_sink.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/persist/journal.h"

namespace incentag {
namespace persist {
namespace {

class JournalSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("journal_sink_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // A writer with a durable SubmitRecord.
  std::unique_ptr<JournalWriter> MakeWriter(const std::string& name) {
    auto writer = JournalWriter::Open(Path(name));
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    SubmitRecord submit;
    submit.name = name;
    submit.strategy_name = "round_robin";
    EXPECT_TRUE(writer.value()->AppendSubmit(submit).ok());
    EXPECT_TRUE(writer.value()->SyncData().ok());
    return std::move(writer).value();
  }

  static void AppendBatch(JournalWriter* writer, uint64_t first_seq,
                          size_t count) {
    std::vector<CompletionRecord> records(count);
    for (size_t i = 0; i < count; ++i) {
      records[i].seq = first_seq + i;
      records[i].resource = static_cast<core::ResourceId>(i % 7);
    }
    ASSERT_TRUE(
        writer->AppendCompletionBatch(records.data(), records.size()).ok());
  }

  std::filesystem::path dir_;
};

TEST_F(JournalSinkTest, EveryScheduledJournalGetsOneSync) {
  constexpr int kWriters = 6;
  JournalSinkOptions options;
  options.batch_interval_us = 0;
  JournalSink sink(options);
  std::vector<std::unique_ptr<JournalWriter>> writers;
  const int64_t before = JournalSyncsCounter()->Value();
  for (int i = 0; i < kWriters; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
    AppendBatch(writers.back().get(), 0, 3 + i);
    sink.Schedule(writers.back().get());
  }
  sink.Drain();
  // Each writer was scheduled once, so it lands in exactly one pass —
  // however the passes happened to split the dirty set.
  EXPECT_EQ(sink.syncs(), kWriters);
  EXPECT_EQ(JournalSyncsCounter()->Value(), before + kWriters);
  for (int i = 0; i < kWriters; ++i) {
    auto contents = ReadJournal(writers[i]->path());
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents.value().tail_status.ok());
    EXPECT_EQ(contents.value().completions.size(),
              static_cast<size_t>(3 + i));
  }
  sink.Stop();
}

// Schedule after Stop syncs inline on the calling thread and must feed
// the same incentag_persist_journal_syncs_total metric as the sink's
// normal passes.
TEST_F(JournalSinkTest, StragglerScheduleAfterStopCountsTowardSyncsMetric) {
  auto writer = MakeWriter("straggler.journal");
  JournalSink sink;
  sink.Stop();
  AppendBatch(writer.get(), 0, 1);
  const int64_t before = JournalSyncsCounter()->Value();
  sink.Schedule(writer.get());
  EXPECT_EQ(JournalSyncsCounter()->Value(), before + 1);
  auto contents = ReadJournal(writer->path());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().completions.size(), 1u);
}

// TSan stress: 16 campaigns appending/compacting on 4 stepper threads
// while the sink's thread syncs and the main thread drains. Exercises
// SyncData vs Compact's descriptor swap vs the batched append path.
TEST_F(JournalSinkTest, ConcurrentScheduleDrainCompactStress) {
  constexpr int kCampaigns = 16;
  constexpr int kThreads = 4;
  constexpr int kBatchesPerWriter = 30;
  constexpr size_t kBatchSize = 4;

  JournalSinkOptions options;
  options.batch_interval_us = 0;  // commit as fast as the dirty set fills
  JournalSink sink(options);

  std::vector<std::unique_ptr<JournalWriter>> writers;
  for (int i = 0; i < kCampaigns; ++i) {
    writers.push_back(MakeWriter("j" + std::to_string(i) + ".journal"));
  }

  std::vector<std::thread> steppers;
  for (int t = 0; t < kThreads; ++t) {
    steppers.emplace_back([&, t] {
      // Each thread owns campaigns t, t+kThreads, ... so per-journal
      // appends stay single-threaded (the manager's invariant) while
      // the sink commits concurrently.
      for (int batch = 0; batch < kBatchesPerWriter; ++batch) {
        for (int i = t; i < kCampaigns; i += kThreads) {
          JournalWriter* writer = writers[i].get();
          AppendBatch(writer,
                      static_cast<uint64_t>(batch) * kBatchSize, kBatchSize);
          sink.Schedule(writer);
          if (batch == kBatchesPerWriter / 2 && i % 3 == 0) {
            // Mid-stream compaction: swaps the writer's descriptor under
            // the sink's feet.
            SubmitRecord submit;
            submit.name = "j" + std::to_string(i) + ".journal";
            submit.strategy_name = "round_robin";
            SnapshotRecord snapshot;
            snapshot.num_completions =
                static_cast<uint64_t>(batch + 1) * kBatchSize;
            snapshot.next_assign_seq = snapshot.num_completions;
            snapshot.runtime_state = "stress-state";
            const int64_t tail = writer->size();
            ASSERT_TRUE(writer->Compact(submit, snapshot, tail).ok());
            sink.Schedule(writer);
          }
        }
      }
    });
  }
  for (int pass = 0; pass < 5; ++pass) sink.Drain();
  for (std::thread& thread : steppers) thread.join();
  sink.Stop();

  for (int i = 0; i < kCampaigns; ++i) {
    auto contents = ReadJournal(writers[i]->path());
    ASSERT_TRUE(contents.ok()) << writers[i]->path();
    EXPECT_TRUE(contents.value().tail_status.ok()) << writers[i]->path();
    const auto& journal = contents.value();
    const uint64_t expect_total =
        static_cast<uint64_t>(kBatchesPerWriter) * kBatchSize;
    const uint64_t base =
        journal.has_snapshot ? journal.snapshot.num_completions : 0;
    EXPECT_EQ(base + journal.completions.size(), expect_total)
        << writers[i]->path();
  }
}

}  // namespace
}  // namespace persist
}  // namespace incentag
