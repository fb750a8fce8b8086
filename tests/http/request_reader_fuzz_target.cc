// Fuzz target for the HTTP/1.1 request reader behind every edge
// connection (http::RequestReader). The input's first byte picks the
// limits (even: the defaults; odd: small ones, so oversized heads and
// bodies are reachable from short inputs); the rest is what a client
// writes before closing the connection. Built two ways: linked into
// http_request_reader_fuzz_test, whose gtest cases replay a seed corpus
// and seeded mutations through it, and alone with clang's
// -fsanitize=fuzzer as a libFuzzer binary.
//
// The bytes go through a socketpair, capped at kMaxWireBytes so one
// write fits in the socket's buffer and nothing blocks; the writing end
// is closed before the reader starts. Beyond "no crash, no out-of-bounds
// read", it checks that every read ends in kOk, kClosed, kTooLarge or
// kMalformed (never a timeout or transport error on a connection that
// only closed), that no accepted head or body exceeds the limits, and
// that an accepted body is exactly its Content-Length (every one of
// them, when the field repeats).
#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/http/http.h"
#include "src/util/logging.h"
#include "src/util/socket.h"

namespace {

using incentag::http::ReadLimits;
using incentag::http::ReadOutcome;
using incentag::http::Request;

constexpr size_t kMaxWireBytes = 16 * 1024;

// A lower bound on the bytes of the head `request` was parsed from:
// decoding and trimming only shrink what the wire carried.
size_t HeadBytesAtLeast(const Request& request) {
  size_t bytes = request.method.size() + request.path.size();
  for (const auto& [key, value] : request.query) {
    bytes += key.size() + value.size();
  }
  for (const auto& [name, value] : request.headers) {
    bytes += name.size() + value.size();
  }
  return bytes;
}

// The limits the selector byte names.
ReadLimits Limits(uint8_t selector) {
  ReadLimits limits;
  if (selector % 2 == 1) {
    limits.max_head_bytes = 128;
    limits.max_body_bytes = 64;
  }
  return limits;
}

}  // namespace

// Reads one input to its end with every check above and returns the
// outcome of each read in order (none for an empty input).
std::vector<ReadOutcome> RequestReaderFuzzRun(const uint8_t* data,
                                              size_t size) {
  std::vector<ReadOutcome> outcomes;
  if (size < 1) return outcomes;
  const ReadLimits limits = Limits(data[0]);
  std::string_view wire(reinterpret_cast<const char*>(data) + 1, size - 1);
  if (wire.size() > kMaxWireBytes) wire = wire.substr(0, kMaxWireBytes);

  int fds[2];
  INCENTAG_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  incentag::util::Socket server(fds[0]);
  {
    incentag::util::Socket client(fds[1]);
    INCENTAG_CHECK(client.WriteAll(wire).ok());
  }
  // The peer has closed, so a read never waits; a timeout is a finding.
  INCENTAG_CHECK(server.SetRecvTimeout(5000).ok());

  incentag::http::RequestReader reader(&server, limits);
  Request request;
  // Every accepted request consumes at least its blank line, so the
  // reader ends within wire.size() requests.
  for (size_t reads = 0; reads <= wire.size(); ++reads) {
    const ReadOutcome outcome = reader.Next(&request).outcome;
    outcomes.push_back(outcome);
    if (outcome != ReadOutcome::kOk) {
      INCENTAG_CHECK(outcome == ReadOutcome::kClosed ||
                     outcome == ReadOutcome::kTooLarge ||
                     outcome == ReadOutcome::kMalformed);
      return outcomes;
    }
    INCENTAG_CHECK(HeadBytesAtLeast(request) <= limits.max_head_bytes);
    INCENTAG_CHECK(request.body.size() <= limits.max_body_bytes);
    INCENTAG_CHECK(!request.method.empty());
    INCENTAG_CHECK(!request.path.empty() && request.path[0] == '/');
    // An accepted Content-Length is digits only and within the limit,
    // and every repeat of it frames the same body.
    const std::string* length = request.Header("content-length");
    INCENTAG_CHECK(length == nullptr
                       ? request.body.empty()
                       : std::stoull(*length) == request.body.size());
    for (const auto& [name, value] : request.headers) {
      INCENTAG_CHECK(name != "content-length" || value == *length);
    }
  }
  INCENTAG_CHECK(!"the reader accepted more requests than the wire holds");
  return outcomes;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RequestReaderFuzzRun(data, size);
  return 0;
}
