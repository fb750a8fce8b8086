// Fuzz target for the two dataset parsers: the Delicious-style dump
// reader (sim::ReadDumpText) and the prepared-dataset loader
// (sim::ParsePreparedDataset). The input is a file's text, fed to both.
// Built two ways: linked into sim_dataset_fuzz_test, whose gtest driver
// replays seed files and seeded mutations through it, and alone with
// clang's -fsanitize=fuzzer as a libFuzzer binary.
//
// Beyond "no crash, no out-of-bounds read", it checks the parsers'
// bookkeeping: the dump reader skips what it cannot parse and counts every
// line as a post or a skip, and a dataset the loader accepts writes back
// to a file it loads again.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/dataset_io.h"
#include "src/sim/delicious_format.h"
#include "src/util/logging.h"

namespace {

// A written line's words in an order that does not depend on tag ids: a
// post's tags sorted, a reference's <tag> <weight> pairs sorted by tag
// (the writer orders both by the ids the loader assigned).
std::vector<std::string> SortedWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  for (std::string word; in >> word;) words.push_back(word);
  if (words.empty()) return words;
  if (words[0] != "reference") {
    if (words[0] != "resource" && words[0] != "resources" &&
        words[0] != "initial" && words[0] != "future") {
      std::sort(words.begin(), words.end());
    }
    return words;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 2; i + 1 < words.size(); i += 2) {
    pairs.emplace_back(words[i], words[i + 1]);
  }
  std::sort(pairs.begin(), pairs.end());
  words.resize(2);
  for (auto& [tag, weight] : pairs) {
    words.push_back(std::move(tag));
    words.push_back(std::move(weight));
  }
  return words;
}

}  // namespace

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
  // again and writes back the same lines, up to the order of tags (the
  // loader assigns new ids) and the last bits of reference weights (the
  // loader renormalizes them).
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
  std::istringstream a(written.value());
  std::istringstream b(rewritten.value());
  std::string line_a;
  std::string line_b;
  while (std::getline(a, line_a)) {
    INCENTAG_CHECK(std::getline(b, line_b));
    if (line_a == line_b) continue;
    const std::vector<std::string> words_a = SortedWords(line_a);
    const std::vector<std::string> words_b = SortedWords(line_b);
    INCENTAG_CHECK(words_a.size() == words_b.size());
    for (size_t i = 0; i < words_a.size(); ++i) {
      if (words_a[i] == words_b[i]) continue;
      // Reference weights, paired with their tags by SortedWords.
      INCENTAG_CHECK(words_a[0] == "reference");
      INCENTAG_CHECK(std::fabs(std::stod(words_a[i]) -
                               std::stod(words_b[i])) <= 1e-12);
    }
  }
  INCENTAG_CHECK(!std::getline(b, line_b));
  return 0;
}
