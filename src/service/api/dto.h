// Versioned API DTOs for the fleet's REST surface (ISSUE 8).
//
// Everything the HTTP edge says or understands is defined here — the
// /v1 request/response schemas, their JSON codecs, and the single
// util::StatusCode -> HTTP status mapping every endpoint uses. The edge
// (src/http/campaign_routes.cc) holds no schema knowledge of its own,
// so a /v2 is a new set of DTOs, not a rewrite of the routing.
//
// Schema reference with examples: src/http/README.md.
#ifndef INCENTAG_SERVICE_API_DTO_H_
#define INCENTAG_SERVICE_API_DTO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/campaign_manager.h"
#include "src/service/external_source.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace incentag {
namespace service {
namespace api {

// POST /v1/campaigns — the deterministic campaign inputs. The server
// attaches the non-serializable parts (dataset, strategy instance,
// stream) itself; this is the same split CampaignFactory makes at
// recovery.
struct SubmitCampaignRequest {
  std::string name;
  std::string strategy;
  int64_t budget = 0;
  int omega = 5;
  int64_t under_tagged_threshold = 10;
  int64_t batch_size = 1;
  int32_t priority = 1;
  double deadline_seconds = 0.0;
  uint64_t seed = 0;
};

// POST /v1/campaigns/{id}/completions — a span of finished tasks.
struct CompletionBatchRequest {
  std::vector<ExternalCompletion> completions;
  // Decode rejects batches above this (kInvalidArgument): bigger spans
  // should be split; the body-size limit backstops the wire anyway.
  static constexpr size_t kMaxBatch = 65536;
};

// Decoders validate shape and ranges and fail with kInvalidArgument;
// unknown fields are ignored (forward compatibility within /v1).
util::Result<SubmitCampaignRequest> DecodeSubmitCampaignRequest(
    const util::json::Value& body);
util::Result<CompletionBatchRequest> DecodeCompletionBatchRequest(
    const util::json::Value& body);

// Wire names for CampaignState ("running", "parked", "done",
// "cancelled", "failed", "quarantined") and the inverse for ?state=
// filters.
std::string_view CampaignStateName(CampaignState state);
bool ParseCampaignState(std::string_view name, CampaignState* out);

// Response encoders. CampaignStatusView is the JSON shape of one
// CampaignStatus; the page view wraps a listing with its pagination
// envelope {campaigns, total, offset, limit} (cf. the FastAPI listing
// shape in SNIPPETS.md snippet 1).
util::json::Value EncodeCampaignStatus(const CampaignStatus& status);
util::json::Value EncodeCampaignPage(const CampaignPage& page);
util::json::Value EncodeIntakeResult(const IntakeResult& result);

// ErrorResponse: {"error": {"code": "<status_code_name>", "message":
// ...}}. The one error shape every endpoint returns.
util::json::Value EncodeError(const util::Status& status);

// The single StatusCode -> HTTP status table (kOk -> 200, kNotFound ->
// 404, kInvalidArgument -> 400, kResourceExhausted -> 429, ...). Every
// endpoint maps through here; no ad-hoc numbers at the edge.
int HttpStatusFor(util::StatusCode code);

}  // namespace api
}  // namespace service
}  // namespace incentag

#endif  // INCENTAG_SERVICE_API_DTO_H_
