// Journal hot-path micro-benchmarks (ISSUE 5): the batched,
// arena-encoded completion append vs the allocating per-record path, and
// the CRC-32 kernel both paths lean on.
//
//   BM_EncodeCompletionAllocating  one std::string per record (old path)
//   BM_EncodeCompletionArena       EncodeCompletionRecordTo + framed
//                                  in-place into a reused arena
//   BM_AppendCompletionSingle      JournalWriter::AppendCompletion per
//                                  record: encode alloc + lock each
//   BM_AppendCompletionBatch/N     AppendCompletionBatch over N-record
//                                  quanta: one arena encode + one lock
//   BM_Crc32/N                     checksum throughput at N bytes
//                                  (slicing-by-8)
//
// items_per_second is completion records (bytes for BM_Crc32), so the
// single/batch pairs read directly as records/sec. The CI perf gate
// tracks BM_AppendCompletionBatch/256 against bench/baselines/.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/persist/journal.h"
#include "src/util/crc32.h"
#include "src/util/random.h"

namespace {

using incentag::persist::AppendFramedCompletionRecord;
using incentag::persist::CompletionRecord;
using incentag::persist::EncodeCompletionRecord;
using incentag::persist::FrameRecord;
using incentag::persist::JournalWriter;
using incentag::persist::SubmitRecord;

std::vector<CompletionRecord> MakeRecords(size_t n) {
  std::vector<CompletionRecord> records;
  records.reserve(n);
  incentag::util::Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(CompletionRecord{
        static_cast<uint64_t>(i),
        static_cast<incentag::core::ResourceId>(rng.NextUint64() % 1000)});
  }
  return records;
}

std::string TempJournalPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("bench_micro_journal_") + name + ".journal"))
      .string();
}

void BM_EncodeCompletionAllocating(benchmark::State& state) {
  const auto records = MakeRecords(256);
  size_t i = 0;
  for (auto _ : state) {
    std::string frame = FrameRecord(EncodeCompletionRecord(
        records[i++ & 255]));
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeCompletionAllocating);

void BM_EncodeCompletionArena(benchmark::State& state) {
  const auto records = MakeRecords(256);
  std::string arena;
  size_t i = 0;
  for (auto _ : state) {
    arena.clear();
    AppendFramedCompletionRecord(records[i++ & 255], &arena);
    benchmark::DoNotOptimize(arena);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeCompletionArena);

void BM_AppendCompletionSingle(benchmark::State& state) {
  const auto records = MakeRecords(256);
  const std::string path = TempJournalPath("single");
  auto writer = JournalWriter::Open(path, /*truncate_to=*/0);
  if (!writer.ok()) {
    state.SkipWithError("journal open failed");
    return;
  }
  writer.value()->AppendSubmit(SubmitRecord{});
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        writer.value()->AppendCompletion(records[i++ & 255]));
    // Flush keeps the in-memory buffer from growing unboundedly and
    // charges the same write() the service's step pipeline pays.
    if ((i & 4095) == 0) writer.value()->Flush();
  }
  writer.value().reset();
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendCompletionSingle);

void BM_AppendCompletionBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const auto records = MakeRecords(batch);
  const std::string path = TempJournalPath("batch");
  auto writer = JournalWriter::Open(path, /*truncate_to=*/0);
  if (!writer.ok()) {
    state.SkipWithError("journal open failed");
    return;
  }
  writer.value()->AppendSubmit(SubmitRecord{});
  int64_t appended = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        writer.value()->AppendCompletionBatch(records.data(), batch));
    appended += static_cast<int64_t>(batch);
    if (appended % 4096 < static_cast<int64_t>(batch)) {
      writer.value()->Flush();
    }
  }
  writer.value().reset();
  std::filesystem::remove(path);
  state.SetItemsProcessed(appended);
}
BENCHMARK(BM_AppendCompletionBatch)->Arg(8)->Arg(64)->Arg(256);

void BM_Crc32(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::string data(size, '\0');
  incentag::util::Rng rng(11);
  for (char& ch : data) ch = static_cast<char>(rng.NextUint64() & 0xFF);
  for (auto _ : state) {
    benchmark::DoNotOptimize(incentag::util::Crc32(data.data(), data.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(13)->Arg(64)->Arg(4096)->Arg(65536);

}  // namespace
