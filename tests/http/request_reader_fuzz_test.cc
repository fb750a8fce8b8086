// Drives the request reader fuzz target (request_reader_fuzz_target.cc)
// without a fuzzing engine. The seeds are the requests of http_test.cc
// and the /v1 routes with their bodies, alone and pipelined; each goes
// through the target under both limit sets, followed by seeded mutants
// (truncations, bit flips, inflated Content-Lengths). A finding aborts
// the process with the failed check.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/http/http.h"
#include "src/util/random.h"

std::vector<incentag::http::ReadOutcome> RequestReaderFuzzRun(
    const uint8_t* data, size_t size);

namespace incentag {
namespace http {
namespace {

// Runs `wire` through the target under the limit set `limits` selects
// and returns the outcomes of its reads.
std::vector<ReadOutcome> RunTarget(uint8_t limits, const std::string& wire) {
  std::string bytes(1, static_cast<char>(limits));
  bytes += wire;
  return RequestReaderFuzzRun(reinterpret_cast<const uint8_t*>(bytes.data()),
                              bytes.size());
}

std::string Post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: edge\r\n" +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds = {
      // http_test.cc
      "GET /v1/campaigns?offset=5&limit=2&search=ad%20hoc HTTP/1.1\r\n"
      "Host: x\r\nX-Custom: Value\r\n\r\n",
      "POST /v1/campaigns HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n",
      "GET /partial HTTP/1.1\r\n",
      "POST /v1 HTTP/1.1\r\nContent-Length: 17\r\n\r\n",
      "GET /" + std::string(256, 'a') + " HTTP/1.1\r\n\r\n",
      "NOT-HTTP\r\n\r\n",
      "GET /x HTTP/2.0\r\n\r\n",
      "GET /x HTTP/1.1\r\nBadHeader\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\n"
      "{}GET /smuggled HTTP/1.1\r\n\r\n",
      // the /v1 routes
      Post("/v1/campaigns",
           R"({"name":"news","strategy":"fpmu","budget":5000,"omega":7,)"
           R"("batch_size":32,"priority":3,"deadline_seconds":12.5,)"
           R"("seed":42})"),
      Post("/v1/campaigns/12/completions",
           R"({"completions":[{"seq":0,"resource":12},)"
           R"({"seq":1,"resource":3}]})"),
      "GET /v1/campaigns/12 HTTP/1.1\r\nHost: edge\r\n\r\n",
      "GET /v1/campaigns/12/tasks?max=16 HTTP/1.1\r\nHost: edge\r\n\r\n",
      "GET /v1/campaigns/ HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "GET /metrics HTTP/1.1\r\nHost: edge\r\n\r\n",
      "GET /healthz#frag HTTP/1.1\r\nConnection: close\r\n\r\n",
  };
  // Keep-alive pipelines of the routes above.
  seeds.push_back(seeds[11] + seeds[12] + seeds[13]);
  seeds.push_back(seeds[12] + seeds[16] + seeds[12]);
  return seeds;
}

// Seeded mutants of `seed`: truncations (a peer that closed early), bit
// flips, and a Content-Length raised past the bytes that follow.
std::vector<std::string> Mutants(const std::string& seed, util::Rng* rng,
                                 int count) {
  static const std::string kLength = "Content-Length: ";
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string bytes = seed;
    const uint64_t kind = rng->NextBounded(3);
    const size_t length_at = bytes.find(kLength);
    if (kind == 2 && length_at != std::string::npos) {
      const size_t digits = length_at + kLength.size();
      const size_t end = bytes.find("\r\n", digits);
      bytes.replace(digits, end - digits,
                    std::to_string(rng->NextBounded(uint64_t{1} << 40)));
    } else if (kind == 0 || bytes.empty()) {
      bytes.resize(rng->NextBounded(bytes.size() + 1));
    } else {
      const size_t at = rng->NextBounded(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng->NextBounded(8)));
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(RequestReaderFuzzTest, SeedCorpusAndMutations) {
  util::Rng rng(0x4774);
  for (const std::string& seed : Seeds()) {
    for (uint8_t limits : {uint8_t{0}, uint8_t{1}}) {
      RunTarget(limits, seed);
      for (const std::string& mutant : Mutants(seed, &rng, 300)) {
        RunTarget(limits, mutant);
      }
    }
  }
}

// The seeds reach every outcome the target allows, so its checks on
// accepted requests and on each refusal both run.
TEST(RequestReaderFuzzTest, SeedsReachEveryOutcome) {
  std::set<ReadOutcome> seen;
  for (const std::string& seed : Seeds()) {
    for (uint8_t limits : {uint8_t{0}, uint8_t{1}}) {
      for (ReadOutcome outcome : RunTarget(limits, seed)) {
        seen.insert(outcome);
      }
    }
  }
  EXPECT_EQ(seen, (std::set<ReadOutcome>{
                      ReadOutcome::kOk, ReadOutcome::kClosed,
                      ReadOutcome::kTooLarge, ReadOutcome::kMalformed}));
}

}  // namespace
}  // namespace http
}  // namespace incentag
