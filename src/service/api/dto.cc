#include "src/service/api/dto.h"

#include <cmath>
#include <utility>

namespace incentag {
namespace service {
namespace api {
namespace {

using util::json::Value;

// Field accessors: absent-or-wrong-kind aware. `required` failures name
// the field so clients can fix their payloads without reading our code.
util::Status Missing(std::string_view field) {
  return util::Status::InvalidArgument("missing or invalid field: " +
                                       std::string(field));
}

util::Result<std::string> GetString(const Value& obj, std::string_view key) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) return Missing(key);
  return v->string_value();
}

// Integer field: must be a number holding an exact integer.
util::Result<int64_t> GetInt(const Value& obj, std::string_view key) {
  const Value* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) return Missing(key);
  double d = v->number_value();
  if (d != std::floor(d) || std::fabs(d) > 9007199254740992.0) {
    return Missing(key);
  }
  return static_cast<int64_t>(d);
}

// Optional variants leave *out untouched when the field is absent but
// still reject a present-but-malformed value.
util::Status OptionalInt(const Value& obj, std::string_view key,
                         int64_t* out) {
  if (obj.Find(key) == nullptr) return util::Status::OK();
  util::Result<int64_t> v = GetInt(obj, key);
  if (!v.ok()) return v.status();
  *out = v.value();
  return util::Status::OK();
}

util::Status OptionalDouble(const Value& obj, std::string_view key,
                            double* out) {
  const Value* v = obj.Find(key);
  if (v == nullptr) return util::Status::OK();
  if (!v->is_number()) return Missing(key);
  *out = v->number_value();
  return util::Status::OK();
}

}  // namespace

util::Result<SubmitCampaignRequest> DecodeSubmitCampaignRequest(
    const Value& body) {
  if (!body.is_object()) {
    return util::Status::InvalidArgument("request body must be an object");
  }
  SubmitCampaignRequest out;

  util::Result<std::string> name = GetString(body, "name");
  if (!name.ok()) return name.status();
  out.name = std::move(name).value();
  if (out.name.empty()) {
    return util::Status::InvalidArgument("name must be non-empty");
  }

  util::Result<std::string> strategy = GetString(body, "strategy");
  if (!strategy.ok()) return strategy.status();
  out.strategy = std::move(strategy).value();

  util::Result<int64_t> budget = GetInt(body, "budget");
  if (!budget.ok()) return budget.status();
  out.budget = budget.value();
  if (out.budget <= 0) {
    return util::Status::InvalidArgument("budget must be positive");
  }

  int64_t omega = out.omega;
  INCENTAG_RETURN_IF_ERROR(OptionalInt(body, "omega", &omega));
  INCENTAG_RETURN_IF_ERROR(core::ValidateOmega(omega));
  out.omega = static_cast<int>(omega);

  INCENTAG_RETURN_IF_ERROR(OptionalInt(body, "under_tagged_threshold",
                                       &out.under_tagged_threshold));
  if (out.under_tagged_threshold < 0) {
    return util::Status::InvalidArgument(
        "under_tagged_threshold must be >= 0");
  }

  INCENTAG_RETURN_IF_ERROR(OptionalInt(body, "batch_size", &out.batch_size));
  if (out.batch_size <= 0) {
    return util::Status::InvalidArgument("batch_size must be positive");
  }

  int64_t priority = out.priority;
  INCENTAG_RETURN_IF_ERROR(OptionalInt(body, "priority", &priority));
  if (priority < 1 || priority > 1000000) {
    return util::Status::InvalidArgument("priority out of range");
  }
  out.priority = static_cast<int32_t>(priority);

  INCENTAG_RETURN_IF_ERROR(
      OptionalDouble(body, "deadline_seconds", &out.deadline_seconds));
  if (!std::isfinite(out.deadline_seconds) || out.deadline_seconds < 0.0) {
    return util::Status::InvalidArgument("deadline_seconds out of range");
  }

  int64_t seed = 0;
  INCENTAG_RETURN_IF_ERROR(OptionalInt(body, "seed", &seed));
  if (seed < 0) return util::Status::InvalidArgument("seed must be >= 0");
  out.seed = static_cast<uint64_t>(seed);

  return out;
}

util::Result<CompletionBatchRequest> DecodeCompletionBatchRequest(
    const Value& body) {
  if (!body.is_object()) {
    return util::Status::InvalidArgument("request body must be an object");
  }
  const Value* list = body.Find("completions");
  if (list == nullptr || !list->is_array()) {
    return Missing("completions");
  }
  if (list->items().size() > CompletionBatchRequest::kMaxBatch) {
    return util::Status::InvalidArgument(
        "completion batch exceeds " +
        std::to_string(CompletionBatchRequest::kMaxBatch) + " entries");
  }
  CompletionBatchRequest out;
  out.completions.reserve(list->items().size());
  for (const Value& item : list->items()) {
    if (!item.is_object()) {
      return util::Status::InvalidArgument(
          "completions entries must be objects");
    }
    util::Result<int64_t> seq = GetInt(item, "seq");
    if (!seq.ok()) return seq.status();
    if (seq.value() < 0) {
      return util::Status::InvalidArgument("seq must be >= 0");
    }
    util::Result<int64_t> resource = GetInt(item, "resource");
    if (!resource.ok()) return resource.status();
    if (resource.value() < 0 ||
        resource.value() >= static_cast<int64_t>(core::kInvalidResource)) {
      return util::Status::InvalidArgument("resource out of range");
    }
    ExternalCompletion c;
    c.seq = static_cast<uint64_t>(seq.value());
    c.resource = static_cast<core::ResourceId>(resource.value());
    out.completions.push_back(c);
  }
  return out;
}

std::string_view CampaignStateName(CampaignState state) {
  switch (state) {
    case CampaignState::kRunning:
      return "running";
    case CampaignState::kParked:
      return "parked";
    case CampaignState::kDone:
      return "done";
    case CampaignState::kCancelled:
      return "cancelled";
    case CampaignState::kFailed:
      return "failed";
    case CampaignState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

bool ParseCampaignState(std::string_view name, CampaignState* out) {
  if (name == "running") {
    *out = CampaignState::kRunning;
  } else if (name == "parked") {
    *out = CampaignState::kParked;
  } else if (name == "done") {
    *out = CampaignState::kDone;
  } else if (name == "cancelled") {
    *out = CampaignState::kCancelled;
  } else if (name == "failed") {
    *out = CampaignState::kFailed;
  } else if (name == "quarantined") {
    *out = CampaignState::kQuarantined;
  } else {
    return false;
  }
  return true;
}

Value EncodeCampaignStatus(const CampaignStatus& status) {
  Value v = Value::Object();
  v.Set("id", Value::Int(static_cast<int64_t>(status.id)));
  v.Set("name", Value::Str(status.name));
  v.Set("strategy", Value::Str(status.strategy));
  v.Set("state", Value::Str(std::string(CampaignStateName(status.state))));
  v.Set("budget", Value::Int(status.budget));
  v.Set("budget_spent", Value::Int(status.budget_spent));
  v.Set("tasks_completed", Value::Int(status.tasks_completed));
  v.Set("tasks_in_flight", Value::Int(status.tasks_in_flight));
  v.Set("priority", Value::Int(status.priority));
  v.Set("deadline_slack_seconds",
        Value::Number(status.deadline_slack_seconds));
  v.Set("quanta_run", Value::Int(status.quanta_run));
  v.Set("records_replayed", Value::Int(status.records_replayed));
  v.Set("checkpoints_recorded",
        Value::Int(static_cast<int64_t>(status.checkpoints_recorded)));
  v.Set("queue_delay_seconds", Value::Number(status.queue_delay_seconds));
  v.Set("elapsed_seconds", Value::Number(status.elapsed_seconds));
  v.Set("tasks_per_second", Value::Number(status.tasks_per_second));

  Value metrics = Value::Object();
  metrics.Set("budget_used", Value::Int(status.metrics.budget_used));
  metrics.Set("avg_quality", Value::Number(status.metrics.avg_quality));
  metrics.Set("over_tagged", Value::Int(status.metrics.over_tagged));
  metrics.Set("under_tagged", Value::Int(status.metrics.under_tagged));
  metrics.Set("wasted_posts", Value::Int(status.metrics.wasted_posts));
  v.Set("metrics", std::move(metrics));

  if (!status.error.empty()) v.Set("error", Value::Str(status.error));
  return v;
}

Value EncodeCampaignPage(const CampaignPage& page) {
  Value v = Value::Object();
  Value items = Value::Array();
  for (const CampaignStatus& s : page.statuses) {
    items.Append(EncodeCampaignStatus(s));
  }
  v.Set("campaigns", std::move(items));
  v.Set("total", Value::Int(static_cast<int64_t>(page.total)));
  v.Set("offset", Value::Int(static_cast<int64_t>(page.offset)));
  v.Set("limit", Value::Int(static_cast<int64_t>(page.limit)));
  return v;
}

Value EncodeIntakeResult(const IntakeResult& result) {
  Value v = Value::Object();
  v.Set("delivered", Value::Int(static_cast<int64_t>(result.delivered)));
  v.Set("duplicates", Value::Int(static_cast<int64_t>(result.duplicates)));
  v.Set("unknown", Value::Int(static_cast<int64_t>(result.unknown)));
  v.Set("invalid", Value::Int(static_cast<int64_t>(result.invalid)));
  return v;
}

Value EncodeError(const util::Status& status) {
  Value err = Value::Object();
  err.Set("code", Value::Str(std::string(util::StatusCodeName(
              status.code()))));
  err.Set("message", Value::Str(status.message()));
  Value v = Value::Object();
  v.Set("error", std::move(err));
  return v;
}

int HttpStatusFor(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kOk:
      return 200;
    case util::StatusCode::kInvalidArgument:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    case util::StatusCode::kOutOfRange:
      return 416;
    case util::StatusCode::kFailedPrecondition:
      return 409;
    case util::StatusCode::kCorruption:
      return 500;
    case util::StatusCode::kIoError:
      return 500;
    case util::StatusCode::kResourceExhausted:
      return 429;
    case util::StatusCode::kUnimplemented:
      return 501;
    case util::StatusCode::kInternal:
      return 500;
    case util::StatusCode::kDeadlineExceeded:
      return 504;
  }
  return 500;
}

}  // namespace api
}  // namespace service
}  // namespace incentag
