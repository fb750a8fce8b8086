// API DTO codecs: decode validation, encode shapes, the state-name
// round trip, and the StatusCode -> HTTP mapping table (ISSUE 8).
#include "src/service/api/dto.h"

#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace incentag {
namespace service {
namespace api {
namespace {

util::json::Value MustParse(const std::string& text) {
  auto v = util::json::Parse(text);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return std::move(v).value();
}

TEST(SubmitDecode, FullAndDefaults) {
  auto req = DecodeSubmitCampaignRequest(MustParse(
      R"({"name":"news","strategy":"fpmu","budget":5000,"omega":7,)"
      R"("under_tagged_threshold":4,"batch_size":32,"priority":3,)"
      R"("deadline_seconds":12.5,"seed":42})"));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "news");
  EXPECT_EQ(req.value().strategy, "fpmu");
  EXPECT_EQ(req.value().budget, 5000);
  EXPECT_EQ(req.value().omega, 7);
  EXPECT_EQ(req.value().under_tagged_threshold, 4);
  EXPECT_EQ(req.value().batch_size, 32);
  EXPECT_EQ(req.value().priority, 3);
  EXPECT_DOUBLE_EQ(req.value().deadline_seconds, 12.5);
  EXPECT_EQ(req.value().seed, 42u);

  // Optional fields default; unknown fields are ignored.
  req = DecodeSubmitCampaignRequest(MustParse(
      R"({"name":"n","strategy":"rr","budget":1,"future_field":true})"));
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().omega, 5);
  EXPECT_EQ(req.value().batch_size, 1);
  EXPECT_EQ(req.value().priority, 1);
}

TEST(SubmitDecode, OmegaUpToTheCap) {
  auto req = DecodeSubmitCampaignRequest(MustParse(
      R"({"name":"n","strategy":"rr","budget":1,"omega":1024})"));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().omega, core::kMaxOmega);
}

TEST(SubmitDecode, Rejections) {
  const char* bad[] = {
      R"([1,2,3])",                                       // not an object
      R"({"strategy":"rr","budget":1})",                  // no name
      R"({"name":"","strategy":"rr","budget":1})",        // empty name
      R"({"name":"n","budget":1})",                       // no strategy
      R"({"name":"n","strategy":"rr"})",                  // no budget
      R"({"name":"n","strategy":"rr","budget":0})",       // zero budget
      R"({"name":"n","strategy":"rr","budget":-5})",      // negative
      R"({"name":"n","strategy":"rr","budget":1.5})",     // fractional
      R"({"name":"n","strategy":"rr","budget":1,"omega":0})",
      R"({"name":"n","strategy":"rr","budget":1,"omega":1})",  // Def. 7
      R"({"name":"n","strategy":"rr","budget":1,"omega":1025})",  // cap
      R"({"name":"n","strategy":"rr","budget":1,"omega":1000000})",
      R"({"name":"n","strategy":"rr","budget":1,"batch_size":-1})",
      R"({"name":"n","strategy":"rr","budget":1,"priority":0})",
      R"({"name":"n","strategy":"rr","budget":1,"deadline_seconds":-1})",
      R"({"name":"n","strategy":"rr","budget":1,"seed":-2})",
      R"({"name":7,"strategy":"rr","budget":1})",         // wrong kind
  };
  for (const char* text : bad) {
    auto req = DecodeSubmitCampaignRequest(MustParse(text));
    EXPECT_FALSE(req.ok()) << "should reject: " << text;
    if (!req.ok()) {
      EXPECT_EQ(req.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST(CompletionBatchDecode, ValidAndInvalid) {
  auto req = DecodeCompletionBatchRequest(MustParse(
      R"({"completions":[{"seq":0,"resource":12},{"seq":1,"resource":3}]})"));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  ASSERT_EQ(req.value().completions.size(), 2u);
  EXPECT_EQ(req.value().completions[0].seq, 0u);
  EXPECT_EQ(req.value().completions[0].resource, 12u);
  EXPECT_EQ(req.value().completions[1].seq, 1u);

  // Empty batch is valid (a no-op POST).
  req = DecodeCompletionBatchRequest(MustParse(R"({"completions":[]})"));
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req.value().completions.empty());

  const char* bad[] = {
      R"({})",                                       // missing list
      R"({"completions":{}})",                       // wrong kind
      R"({"completions":[7]})",                      // entry not object
      R"({"completions":[{"seq":0}]})",              // missing resource
      R"({"completions":[{"resource":1}]})",         // missing seq
      R"({"completions":[{"seq":-1,"resource":1}]})",
      R"({"completions":[{"seq":0,"resource":-1}]})",
      R"({"completions":[{"seq":0.5,"resource":1}]})",
  };
  for (const char* text : bad) {
    auto r = DecodeCompletionBatchRequest(MustParse(text));
    EXPECT_FALSE(r.ok()) << "should reject: " << text;
  }
}

TEST(StateNames, RoundTrip) {
  const CampaignState states[] = {
      CampaignState::kRunning,   CampaignState::kParked,
      CampaignState::kDone,      CampaignState::kCancelled,
      CampaignState::kFailed,    CampaignState::kQuarantined};
  std::set<std::string_view> names;
  for (CampaignState s : states) {
    CampaignState parsed;
    ASSERT_TRUE(ParseCampaignState(CampaignStateName(s), &parsed));
    EXPECT_EQ(parsed, s);
    names.insert(CampaignStateName(s));
  }
  EXPECT_EQ(names.size(), 6u);  // one distinct name per state
  CampaignState ignored;
  EXPECT_FALSE(ParseCampaignState("paused", &ignored));
  EXPECT_FALSE(ParseCampaignState("", &ignored));
}

TEST(Encode, CampaignStatusShape) {
  CampaignStatus status;
  status.id = 12;
  status.name = "photo";
  status.strategy = "mu";
  status.state = CampaignState::kRunning;
  status.budget = 1000;
  status.budget_spent = 400;
  status.tasks_completed = 400;
  status.tasks_in_flight = 16;
  status.metrics.avg_quality = 0.75;

  util::json::Value v = EncodeCampaignStatus(status);
  std::string body = v.Dump();
  EXPECT_NE(body.find(R"("id":12)"), std::string::npos);
  EXPECT_NE(body.find(R"("state":"running")"), std::string::npos);
  EXPECT_NE(body.find(R"("tasks_in_flight":16)"), std::string::npos);
  EXPECT_NE(body.find(R"("avg_quality":0.75)"), std::string::npos);
  // No error field unless there is an error.
  EXPECT_EQ(body.find(R"("error")"), std::string::npos);

  status.state = CampaignState::kFailed;
  status.error = "journal torn";
  body = EncodeCampaignStatus(status).Dump();
  EXPECT_NE(body.find(R"("error":"journal torn")"), std::string::npos);
}

TEST(Encode, PageEnvelope) {
  CampaignPage page;
  page.total = 9;
  page.offset = 3;
  page.limit = 2;
  page.statuses.resize(2);
  page.statuses[0].id = 4;
  page.statuses[1].id = 5;
  std::string body = EncodeCampaignPage(page).Dump();
  EXPECT_NE(body.find(R"("campaigns":[)"), std::string::npos);
  EXPECT_NE(body.find(R"("total":9)"), std::string::npos);
  EXPECT_NE(body.find(R"("offset":3)"), std::string::npos);
  EXPECT_NE(body.find(R"("limit":2)"), std::string::npos);
}

TEST(Encode, IntakeAndError) {
  IntakeResult r;
  r.delivered = 10;
  r.duplicates = 2;
  r.unknown = 1;
  std::string body = EncodeIntakeResult(r).Dump();
  EXPECT_EQ(body,
            R"({"delivered":10,"duplicates":2,"unknown":1,"invalid":0})");

  std::string err =
      EncodeError(util::Status::NotFound("no such campaign")).Dump();
  EXPECT_EQ(
      err,
      R"({"error":{"code":"not_found","message":"no such campaign"}})");
}

TEST(HttpStatusMapping, Table) {
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kOutOfRange), 416);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kCorruption), 500);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kIoError), 500);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kInternal), 500);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kUnimplemented), 501);
  EXPECT_EQ(HttpStatusFor(util::StatusCode::kDeadlineExceeded), 504);
}

}  // namespace
}  // namespace api
}  // namespace service
}  // namespace incentag
