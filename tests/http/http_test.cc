// Wire-level tests: RequestReader over a real socketpair-style loopback
// connection, limits, percent decoding, and response serialization.
#include "src/http/http.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>

#include "src/util/socket.h"

namespace incentag {
namespace http {
namespace {

// A loopback connection: write bytes on one end, parse on the other.
class WirePair {
 public:
  WirePair() {
    EXPECT_TRUE(listener_.Listen("127.0.0.1", 0).ok());
    util::Result<util::Socket> c =
        util::ConnectTcp("127.0.0.1", listener_.port());
    EXPECT_TRUE(c.ok());
    client_ = std::move(c).value();
    util::Result<util::Socket> s = listener_.AcceptWithTimeout(1000);
    EXPECT_TRUE(s.ok());
    server_ = std::move(s).value();
  }

  util::Socket client_;
  util::Socket server_;

 private:
  util::ListenSocket listener_;
};

TEST(RequestReader, ParsesSimpleGet) {
  WirePair wire;
  ASSERT_TRUE(wire.client_
                  .WriteAll(
                      "GET /v1/campaigns?offset=5&limit=2&search=ad%20hoc "
                      "HTTP/1.1\r\n"
                      "Host: x\r\nX-Custom: Value\r\n\r\n")
                  .ok());
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  ReadResult r = reader.Next(&req);
  ASSERT_EQ(r.outcome, ReadOutcome::kOk) << r.error;
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/v1/campaigns");
  ASSERT_NE(req.QueryParam("offset"), nullptr);
  EXPECT_EQ(*req.QueryParam("offset"), "5");
  EXPECT_EQ(*req.QueryParam("limit"), "2");
  EXPECT_EQ(*req.QueryParam("search"), "ad hoc");
  ASSERT_NE(req.Header("x-custom"), nullptr);
  EXPECT_EQ(*req.Header("x-custom"), "Value");
  EXPECT_TRUE(req.keep_alive);
  EXPECT_TRUE(req.body.empty());
}

TEST(RequestReader, ParsesPostBodyAndPipelinedNext) {
  WirePair wire;
  ASSERT_TRUE(wire.client_
                  .WriteAll(
                      "POST /v1/campaigns HTTP/1.1\r\n"
                      "Content-Length: 9\r\n\r\n"
                      "{\"a\": 1}\n"
                      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n")
                  .ok());
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  ReadResult r = reader.Next(&req);
  ASSERT_EQ(r.outcome, ReadOutcome::kOk) << r.error;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.body, "{\"a\": 1}\n");
  EXPECT_TRUE(req.keep_alive);

  r = reader.Next(&req);
  ASSERT_EQ(r.outcome, ReadOutcome::kOk) << r.error;
  EXPECT_EQ(req.path, "/second");
  EXPECT_FALSE(req.keep_alive);
}

TEST(RequestReader, CleanCloseBetweenRequests) {
  WirePair wire;
  wire.client_.Close();
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kClosed);
}

TEST(RequestReader, CloseMidRequestIsMalformed) {
  WirePair wire;
  ASSERT_TRUE(wire.client_.WriteAll("GET /partial HTTP/1.1\r\n").ok());
  wire.client_.Close();
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kMalformed);
}

TEST(RequestReader, RejectsOversizedBody) {
  WirePair wire;
  ReadLimits limits;
  limits.max_body_bytes = 16;
  ASSERT_TRUE(wire.client_
                  .WriteAll(
                      "POST /v1 HTTP/1.1\r\n"
                      "Content-Length: 17\r\n\r\n")
                  .ok());
  RequestReader reader(&wire.server_, limits);
  Request req;
  EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kTooLarge);
}

TEST(RequestReader, RejectsOversizedHead) {
  WirePair wire;
  ReadLimits limits;
  limits.max_head_bytes = 64;
  std::string head = "GET /" + std::string(256, 'a') + " HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(wire.client_.WriteAll(head).ok());
  RequestReader reader(&wire.server_, limits);
  Request req;
  EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kTooLarge);
}

TEST(RequestReader, RejectsMalformed) {
  const char* bad[] = {
      "NOT-HTTP\r\n\r\n",
      "GET /x HTTP/2.0\r\n\r\n",
      "GET /x HTTP/1.1\r\nBadHeader\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* text : bad) {
    WirePair wire;
    ASSERT_TRUE(wire.client_.WriteAll(text).ok());
    RequestReader reader(&wire.server_, ReadLimits{});
    Request req;
    EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kMalformed)
        << "should reject: " << text;
  }
}

// RFC 9112 section 6.3: Content-Length fields with different values make
// the framing ambiguous. A proxy in front that honours the other one
// would read the body as a second, smuggled request. Repeats of one
// value frame the same body and pass.
TEST(RequestReader, RejectsConflictingContentLengths) {
  {
    WirePair wire;
    ASSERT_TRUE(wire.client_
                    .WriteAll("POST /x HTTP/1.1\r\n"
                              "Content-Length: 2\r\nContent-Length: 40\r\n"
                              "\r\n{}GET /smuggled HTTP/1.1\r\n\r\n")
                    .ok());
    RequestReader reader(&wire.server_, ReadLimits{});
    Request req;
    EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kMalformed);
  }
  WirePair wire;
  ASSERT_TRUE(wire.client_
                  .WriteAll("POST /x HTTP/1.1\r\n"
                            "Content-Length: 2\r\nContent-Length: 2\r\n"
                            "\r\n{}GET /next HTTP/1.1\r\n\r\n")
                  .ok());
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  ReadResult r = reader.Next(&req);
  ASSERT_EQ(r.outcome, ReadOutcome::kOk) << r.error;
  EXPECT_EQ(req.body, "{}");
  r = reader.Next(&req);
  ASSERT_EQ(r.outcome, ReadOutcome::kOk) << r.error;
  EXPECT_EQ(req.path, "/next");
}

TEST(RequestReader, RecvTimeoutSurfacesAsTimeout) {
  WirePair wire;
  ASSERT_TRUE(wire.server_.SetRecvTimeout(50).ok());
  RequestReader reader(&wire.server_, ReadLimits{});
  Request req;
  EXPECT_EQ(reader.Next(&req).outcome, ReadOutcome::kTimeout);
}

TEST(WriteResponse, SerializesStatusAndBody) {
  WirePair wire;
  Response resp;
  resp.status = 404;
  resp.content_type = "application/json";
  resp.body = "{\"error\":\"x\"}";
  ASSERT_TRUE(WriteResponse(&wire.server_, resp, /*keep_alive=*/false).ok());
  wire.server_.Close();

  std::string got;
  char chunk[4096];
  while (true) {
    util::Result<size_t> n = wire.client_.ReadSome(chunk, sizeof(chunk));
    ASSERT_TRUE(n.ok());
    if (n.value() == 0) break;
    got.append(chunk, n.value());
  }
  EXPECT_EQ(got,
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 13\r\n"
            "Connection: close\r\n\r\n"
            "{\"error\":\"x\"}");
}

TEST(PercentDecode, Basics) {
  EXPECT_EQ(PercentDecode("a%20b+c"), "a b c");
  EXPECT_EQ(PercentDecode("%2Fpath%3f"), "/path?");
  // Invalid sequences pass through.
  EXPECT_EQ(PercentDecode("100%"), "100%");
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
}

}  // namespace
}  // namespace http
}  // namespace incentag
