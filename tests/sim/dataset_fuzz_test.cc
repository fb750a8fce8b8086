// Drives the dataset-parser fuzz target (dataset_fuzz_target.cc) without
// a fuzzing engine: seed files of both formats, random soup over the
// characters the formats use, then seeded mutations of every seed. A
// finding aborts the process with the failed check. Also holds what the
// target cannot check on arbitrary input: soup is refused by the loader,
// a truncated dataset file is refused, and a dump keeps its valid lines.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/dataset_io.h"
#include "src/sim/delicious_format.h"
#include "src/util/random.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace incentag {
namespace sim {
namespace {

void RunTarget(const std::string& text) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(text.data()),
                         text.size());
}

// The characters the two formats are made of, and some they are not.
constexpr char kAlphabet[] = "abcXYZ0123456789 \t\n#.:/-_\\\"'%$&*()[]{}";

std::string RandomGarbage(util::Rng* rng, size_t length) {
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

constexpr char kValidDataset[] =
    "incentag-dataset v1\n"
    "resources 2\n"
    "resource a.example 3 2 1.5 0\n"
    "reference 2 physics 0.8 maps 0.6\n"
    "initial 2\n"
    "physics\n"
    "physics maps\n"
    "future 1\n"
    "maps\n"
    "resource b.example 2 1 0.5 1\n"
    "reference 1 sports 1.0\n"
    "initial 1\n"
    "sports\n"
    "future 1\n"
    "sports\n";

// A dump of `lines` lines, about half of them valid posts.
std::string HalfValidDump(util::Rng* rng, int lines, int* valid) {
  std::string text;
  *valid = 0;
  for (int line = 0; line < lines; ++line) {
    if (rng->NextBool(0.5)) {
      text += std::to_string(line) + "\tuser\thttp://u" +
              std::to_string(rng->NextBounded(5)) + "\ttag" +
              std::to_string(rng->NextBounded(8)) + "\n";
      ++*valid;
    } else {
      text += RandomGarbage(rng, rng->NextBounded(60));
      text += '\n';
    }
  }
  return text;
}

// Seeded mutants of `seed`: truncations, replaced, inserted and deleted
// characters, and duplicated slices.
std::vector<std::string> Mutants(const std::string& seed, util::Rng* rng,
                                 int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string text = seed;
    const int edits = 1 + static_cast<int>(rng->NextBounded(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = rng->NextBounded(text.size());
      const char c = kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
      switch (rng->NextBounded(5)) {
        case 0:
          text.resize(at);
          break;
        case 1:
          text[at] = c;
          break;
        case 2:
          text.insert(text.begin() + static_cast<ptrdiff_t>(at), c);
          break;
        case 3:
          text.erase(at, 1);
          break;
        default:
          text.insert(at,
                      text.substr(at, 1 + rng->NextBounded(text.size() - at)));
          break;
      }
    }
    out.push_back(std::move(text));
  }
  return out;
}

TEST(DatasetFuzzTest, SeedsSoupAndMutations) {
  util::Rng rng(0xDA7A5E7);
  int valid = 0;
  std::vector<std::string> seeds = {
      kValidDataset,
      "1\tu\thttp://a\tx y\n2\tu\thttp://b\tz\n# comment\n\n",
      HalfValidDump(&rng, 50, &valid),
  };
  // The soup of the reader's old crash test: 20 rounds from each seed.
  for (uint64_t seed : {1u, 42u, 31337u}) {
    util::Rng soup(seed);
    for (int round = 0; round < 20; ++round) {
      seeds.push_back(RandomGarbage(&soup, 1 + soup.NextBounded(2000)));
    }
  }
  for (const std::string& seed : seeds) {
    RunTarget(seed);
    for (const std::string& mutant : Mutants(seed, &rng, 500)) {
      RunTarget(mutant);
    }
  }
  // Enough mutants of the dataset file load that the writer's round trip
  // runs on many shapes.
  int loaded = 0;
  for (const std::string& mutant : Mutants(kValidDataset, &rng, 3000)) {
    RunTarget(mutant);
    loaded += ParsePreparedDataset(mutant).ok() ? 1 : 0;
  }
  EXPECT_GT(loaded, 100);
}

TEST(DatasetFuzzTest, SoupIsRefusedByTheLoader) {
  for (uint64_t seed : {7u, 123u}) {
    util::Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      // Random soup virtually never begins with the magic header.
      EXPECT_FALSE(
          ParsePreparedDataset(RandomGarbage(&rng, 1 + rng.NextBounded(1500)))
              .ok());
    }
  }
}

TEST(DatasetFuzzTest, HalfValidDumpsKeepTheValidLines) {
  for (uint64_t seed : {1u, 42u, 31337u}) {
    util::Rng rng(seed ^ 0xABCDu);
    for (int round = 0; round < 10; ++round) {
      int valid = 0;
      auto dump = ReadDumpText(HalfValidDump(&rng, 50, &valid));
      ASSERT_TRUE(dump.ok());
      // Garbage may accidentally parse, so posts >= valid; never fewer.
      EXPECT_GE(dump.value().posts, valid);
    }
  }
}

// Every cut that removes structure is detected: the resource count pins
// the expected length. Cuts inside the final "future" section may leave a
// shorter but valid tag name, which the parser cannot know.
TEST(DatasetFuzzTest, TruncationsOfAValidFileAreRefused) {
  const std::string full(kValidDataset);
  ASSERT_TRUE(ParsePreparedDataset(full).ok());
  const size_t last_structure = full.rfind("future");
  ASSERT_NE(last_structure, std::string::npos);
  for (uint64_t seed : {7u, 123u}) {
    util::Rng rng(seed ^ 0x7777u);
    for (int round = 0; round < 30; ++round) {
      const size_t cut = 1 + rng.NextBounded(last_structure - 1);
      EXPECT_FALSE(ParsePreparedDataset(full.substr(0, cut)).ok())
          << "cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace sim
}  // namespace incentag
