// Drives the JSON fuzz target (json_fuzz_target.cc) without a fuzzing
// engine: a seed corpus of /v1 request and response bodies, documents
// nested around ParseOptions::max_depth, then seeded mutations of every
// seed. A finding aborts the process with the failed check.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/json.h"
#include "src/util/random.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace incentag {
namespace util {
namespace json {
namespace {

void RunTarget(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size());
}

// Bodies the /v1 DTOs decode and encode, accepted and refused ones
// alike, plus the escapes and number forms the grammar allows.
std::vector<std::string> SeedBodies() {
  return {
      R"({"name":"news","strategy":"fpmu","budget":5000,"omega":7,)"
      R"("under_tagged_threshold":4,"batch_size":32,"priority":3,)"
      R"("deadline_seconds":12.5,"seed":42})",
      R"({"name":"n","strategy":"rr","budget":1,"future_field":true})",
      R"({"name":"n","strategy":"rr","budget":1,"omega":1024})",
      R"({"name":"n","strategy":"rr","budget":1.5})",
      R"({"name":"n","strategy":"rr","budget":1,"deadline_seconds":-1})",
      R"({"name":7,"strategy":"rr","budget":1})",
      R"({"completions":[{"seq":0,"resource":12},{"seq":1,"resource":3}]})",
      R"({"completions":[]})",
      R"({"completions":[{"seq":0.5,"resource":1}]})",
      R"({"completions":[7]})",
      R"({"id":12,"state":"running","tasks_in_flight":16,)"
      R"("avg_quality":0.75,"error":"journal torn"})",
      R"({"campaigns":[{"id":1},{"id":2}],"total":9,"offset":3,"limit":2})",
      R"({"delivered":10,"duplicates":2,"unknown":1,"invalid":0})",
      R"({"error":{"code":"not_found","message":"no such campaign"}})",
      R"([1,2,3])",
      R"({})",
      R"(  [ null , true , false , "" , {} , [] ]  )",
      R"(["\"\\\/\b\f\n\r\t","é中😀","caf)"
      "\xc3\xa9" R"("])",
      R"([0,-0,1e3,-1.5E-7,9007199254740993,1e308,2.2250738585072014e-308])",
      R"({"dup":1,"dup":2})",
  };
}

std::string NestedArrays(int depth, const std::string& inner) {
  return std::string(static_cast<size_t>(depth), '[') + inner +
         std::string(static_cast<size_t>(depth), ']');
}

std::string NestedObjects(int depth, const std::string& inner) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += R"({"k":)";
  out += inner;
  out += std::string(static_cast<size_t>(depth), '}');
  return out;
}

// Seeded mutants of `seed`: truncations, bit flips, inserted structural
// bytes, deleted bytes and duplicated slices.
std::vector<std::string> Mutants(const std::string& seed, Rng* rng,
                                 int count) {
  static const char kStructural[] = "[]{}\",:\\-+.eE0u";
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string bytes = seed;
    const int edits = 1 + static_cast<int>(rng->NextBounded(3));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const size_t at = rng->NextBounded(bytes.size());
      switch (rng->NextBounded(5)) {
        case 0:
          bytes.resize(at);
          break;
        case 1:
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
          break;
        case 2:
          bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                       kStructural[rng->NextBounded(sizeof(kStructural) - 1)]);
          break;
        case 3:
          bytes.erase(at, 1);
          break;
        default: {
          const size_t len = 1 + rng->NextBounded(bytes.size() - at);
          bytes.insert(at, bytes.substr(at, len));
          break;
        }
      }
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(JsonFuzzTest, SeedCorpusAndMutations) {
  std::vector<std::string> seeds = SeedBodies();
  const int max_depth = ParseOptions{}.max_depth;
  for (int depth = max_depth - 1; depth <= max_depth + 1; ++depth) {
    seeds.push_back(NestedArrays(depth, ""));
    seeds.push_back(NestedArrays(depth, "1"));
    seeds.push_back(NestedObjects(depth, "null"));
  }
  Rng rng(0x150A);
  int accepted_seeds = 0;
  for (const std::string& seed : seeds) {
    RunTarget(seed);
    accepted_seeds += Parse(seed).ok() ? 1 : 0;
    for (const std::string& mutant : Mutants(seed, &rng, 2000)) {
      RunTarget(mutant);
    }
  }
  // Every seed but the three nested one level past max_depth parses, so
  // the mutants start from documents the reader takes.
  EXPECT_EQ(accepted_seeds, static_cast<int>(seeds.size()) - 3);
}

// max_depth counts containers: max_depth nested arrays or objects parse,
// whatever the innermost value; one more never does.
TEST(JsonFuzzTest, NestingPastMaxDepthIsRefused) {
  for (int max_depth : {1, 2, 64}) {
    ParseOptions options;
    options.max_depth = max_depth;
    for (const std::string& inner : {std::string(), std::string("1")}) {
      EXPECT_TRUE(Parse(NestedArrays(max_depth, inner), options).ok())
          << max_depth << " '" << inner << "'";
      EXPECT_FALSE(Parse(NestedArrays(max_depth + 1, inner), options).ok())
          << max_depth << " '" << inner << "'";
    }
    EXPECT_TRUE(Parse(NestedObjects(max_depth, "1"), options).ok());
    EXPECT_FALSE(Parse(NestedObjects(max_depth + 1, "1"), options).ok());
  }
  // Far past the cap the reader stops at the cap, not at the stack.
  EXPECT_FALSE(Parse(NestedArrays(1 << 20, "")).ok());
}

}  // namespace
}  // namespace json
}  // namespace util
}  // namespace incentag
