// Fuzz target for the two dataset parsers: the Delicious-style dump
// reader (sim::ReadDumpText) and the prepared-dataset loader
// (sim::ParsePreparedDataset). The input is a file's text, fed to both.
// Built two ways: linked into sim_dataset_fuzz_test, whose gtest driver
// replays seed files and seeded mutations through it, and alone with
// clang's -fsanitize=fuzzer as a libFuzzer binary.
//
// Beyond "no crash, no out-of-bounds read", it checks the parsers'
// bookkeeping: the dump reader skips what it cannot parse and counts every
// line as a post or a skip, and a dataset the loader accepts writes a file
// that loads again and writes back the same bytes.
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/sim/dataset_io.h"
#include "src/sim/delicious_format.h"
#include "src/util/logging.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace sim = incentag::sim;
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  // The dump reader never fails on content: a line is a post or a skip.
  auto dump = sim::ReadDumpText(text);
  INCENTAG_CHECK(dump.ok());
  const sim::RawDump& d = dump.value();
  INCENTAG_CHECK(d.lines == d.posts + d.skipped);
  INCENTAG_CHECK(d.urls.size() == d.sequences.size());
  int64_t posts = 0;
  for (incentag::core::PostSequence sequence : d.sequences) {
    posts += static_cast<int64_t>(sequence.size());
    for (incentag::core::PostView post : sequence) {
      INCENTAG_CHECK(!post.empty());
      for (size_t t = 0; t < post.tags.size(); ++t) {
        INCENTAG_CHECK(post.tags[t] < d.vocab.size());
        INCENTAG_CHECK(t == 0 || post.tags[t - 1] < post.tags[t]);
      }
    }
  }
  INCENTAG_CHECK(posts == d.posts);

  // A loaded dataset is index-aligned, and what its writer writes loads
  // again and writes back byte for byte: reference weights load as
  // written, and the ids the loader assigns follow first appearance, which
  // the writer's id-ordered lines keep.
  auto loaded = sim::ParsePreparedDataset(text);
  if (!loaded.ok()) return 0;
  const sim::PreparedDataset& ds = loaded.value().dataset;
  INCENTAG_CHECK(ds.future_posts.size() == ds.size());
  INCENTAG_CHECK(ds.references.size() == ds.size());
  INCENTAG_CHECK(ds.popularity.size() == ds.size());
  INCENTAG_CHECK(ds.urls.size() == ds.size());
  auto written = sim::SerializePreparedDataset(ds, loaded.value().vocab);
  INCENTAG_CHECK(written.ok());
  auto reloaded = sim::ParsePreparedDataset(written.value());
  INCENTAG_CHECK(reloaded.ok());
  auto rewritten = sim::SerializePreparedDataset(reloaded.value().dataset,
                                                 reloaded.value().vocab);
  INCENTAG_CHECK(rewritten.ok());
  INCENTAG_CHECK(rewritten.value() == written.value());
  return 0;
}
