#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/json_util.h"
#include "serve/json.h"

namespace rll::serve {

namespace {

/// Re-serializes a parsed "id" member. Only numbers and strings are
/// accepted (booleans/objects as correlation ids are a client bug worth
/// rejecting loudly).
Result<std::string> SerializeId(const JsonValue& id) {
  if (id.is_number()) return obs::JsonNumber(id.number);
  if (id.is_string()) return "\"" + obs::JsonEscape(id.string) + "\"";
  return Status::InvalidArgument("\"id\" must be a number or a string");
}

/// True when `v` is an integer in [1, Int's max]. The range is checked on
/// the double, before any cast: converting a double outside the target
/// type's range is undefined behaviour. The limit is max() + 1 as a
/// double (2^31 for int, 2^64 for size_t, both exact), so `v < limit`
/// admits exactly Int's range.
template <typename Int>
bool IsPositiveInteger(double v) {
  const double limit =
      static_cast<double>(std::numeric_limits<Int>::max()) + 1.0;
  return v >= 1.0 && v < limit && v == std::floor(v);
}

}  // namespace

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kEmbed:
      return "embed";
    case RequestType::kPredict:
      return "predict";
    case RequestType::kNeighbors:
      return "neighbors";
    case RequestType::kHealthz:
      return "healthz";
    case RequestType::kStatusz:
      return "statusz";
    case RequestType::kMetricsz:
      return "metricsz";
    case RequestType::kProfilez:
      return "profilez";
    case RequestType::kReloadz:
      return "reloadz";
  }
  RLL_CHECK_MSG(false, "unknown request type");
  return "";
}

bool IsAdminRequest(RequestType type) {
  return type == RequestType::kHealthz || type == RequestType::kStatusz ||
         type == RequestType::kMetricsz || type == RequestType::kProfilez ||
         type == RequestType::kReloadz;
}

const char* ServeErrorName(ServeError error) {
  switch (error) {
    case ServeError::kBadRequest:
      return "bad_request";
    case ServeError::kUnsupported:
      return "unsupported";
    case ServeError::kOverloaded:
      return "overloaded";
    case ServeError::kShutdown:
      return "shutdown";
    case ServeError::kInternal:
      return "internal";
  }
  RLL_CHECK_MSG(false, "unknown serve error");
  return "";
}

Result<Request> ParseRequest(const std::string& line, std::string* id_json) {
  id_json->clear();
  RLL_ASSIGN_OR_RETURN(JsonValue root, ParseJson(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request request;
  if (const JsonValue* id = root.Find("id"); id != nullptr) {
    RLL_ASSIGN_OR_RETURN(request.id_json, SerializeId(*id));
    *id_json = request.id_json;
  }

  const JsonValue* type = root.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Status::InvalidArgument("missing or non-string \"type\"");
  }
  if (type->string == "embed") {
    request.type = RequestType::kEmbed;
  } else if (type->string == "predict") {
    request.type = RequestType::kPredict;
  } else if (type->string == "neighbors") {
    request.type = RequestType::kNeighbors;
  } else if (type->string == "healthz") {
    request.type = RequestType::kHealthz;
  } else if (type->string == "statusz") {
    request.type = RequestType::kStatusz;
  } else if (type->string == "metricsz") {
    request.type = RequestType::kMetricsz;
  } else if (type->string == "profilez") {
    request.type = RequestType::kProfilez;
  } else if (type->string == "reloadz") {
    request.type = RequestType::kReloadz;
  } else {
    return Status::InvalidArgument("unknown \"type\": " + type->string);
  }

  if (IsAdminRequest(request.type)) {
    if (root.Find("features") != nullptr) {
      return Status::InvalidArgument("\"" + type->string +
                                     "\" takes no \"features\"");
    }
    if (root.Find("k") != nullptr) {
      return Status::InvalidArgument("\"k\" is only valid for neighbors");
    }
    if (request.type == RequestType::kReloadz) {
      if (root.Find("hz") != nullptr || root.Find("format") != nullptr) {
        return Status::InvalidArgument(
            "\"hz\"/\"format\" are only valid for profilez");
      }
      const JsonValue* action = root.Find("action");
      if (action == nullptr || !action->is_string()) {
        return Status::InvalidArgument(
            "reloadz requires a string \"action\"");
      }
      if (action->string == "reload") {
        request.reload_action = ReloadAction::kReload;
      } else if (action->string == "status") {
        request.reload_action = ReloadAction::kStatus;
      } else {
        return Status::InvalidArgument("unknown reloadz \"action\": " +
                                       action->string);
      }
      if (const JsonValue* path = root.Find("path"); path != nullptr) {
        if (request.reload_action != ReloadAction::kReload) {
          return Status::InvalidArgument(
              "\"path\" is only valid with action \"reload\"");
        }
        if (!path->is_string() || path->string.empty()) {
          return Status::InvalidArgument(
              "\"path\" must be a non-empty string");
        }
        request.reload_path = path->string;
      }
      return request;
    }
    if (root.Find("path") != nullptr) {
      return Status::InvalidArgument("\"path\" is only valid for reloadz");
    }
    if (request.type != RequestType::kProfilez) {
      if (root.Find("action") != nullptr || root.Find("hz") != nullptr ||
          root.Find("format") != nullptr) {
        return Status::InvalidArgument(
            "\"action\"/\"hz\"/\"format\" are only valid for profilez");
      }
      return request;
    }
    const JsonValue* action = root.Find("action");
    if (action == nullptr || !action->is_string()) {
      return Status::InvalidArgument(
          "profilez requires a string \"action\"");
    }
    if (action->string == "start") {
      request.profile_action = ProfileAction::kStart;
    } else if (action->string == "stop") {
      request.profile_action = ProfileAction::kStop;
    } else if (action->string == "fetch") {
      request.profile_action = ProfileAction::kFetch;
    } else {
      return Status::InvalidArgument("unknown profilez \"action\": " +
                                     action->string);
    }
    if (const JsonValue* hz = root.Find("hz"); hz != nullptr) {
      if (request.profile_action != ProfileAction::kStart) {
        return Status::InvalidArgument(
            "\"hz\" is only valid with action \"start\"");
      }
      if (!hz->is_number() || !IsPositiveInteger<int>(hz->number)) {
        return Status::InvalidArgument("\"hz\" must be a positive integer");
      }
      request.profile_hz = static_cast<int>(hz->number);
    }
    if (const JsonValue* format = root.Find("format"); format != nullptr) {
      if (request.profile_action != ProfileAction::kFetch) {
        return Status::InvalidArgument(
            "\"format\" is only valid with action \"fetch\"");
      }
      if (!format->is_string()) {
        return Status::InvalidArgument("\"format\" must be a string");
      }
      if (format->string == "folded") {
        request.profile_format = ProfileFormat::kFolded;
      } else if (format->string == "json") {
        request.profile_format = ProfileFormat::kJson;
      } else {
        return Status::InvalidArgument("unknown profilez \"format\": " +
                                       format->string);
      }
    }
    return request;
  }
  if (root.Find("action") != nullptr || root.Find("hz") != nullptr ||
      root.Find("format") != nullptr) {
    return Status::InvalidArgument(
        "\"action\"/\"hz\"/\"format\" are only valid for profilez");
  }
  if (root.Find("path") != nullptr) {
    return Status::InvalidArgument("\"path\" is only valid for reloadz");
  }

  const JsonValue* features = root.Find("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("missing or non-array \"features\"");
  }
  if (features->array.empty()) {
    return Status::InvalidArgument("\"features\" must be non-empty");
  }
  request.features.reserve(features->array.size());
  for (const JsonValue& v : features->array) {
    if (!v.is_number()) {
      return Status::InvalidArgument("\"features\" entries must be numbers");
    }
    request.features.push_back(v.number);
  }

  if (const JsonValue* k = root.Find("k"); k != nullptr) {
    if (request.type != RequestType::kNeighbors) {
      return Status::InvalidArgument("\"k\" is only valid for neighbors");
    }
    if (!k->is_number() || !IsPositiveInteger<size_t>(k->number)) {
      return Status::InvalidArgument("\"k\" must be a positive integer");
    }
    request.k = static_cast<size_t>(k->number);
  }
  return request;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "{";
  if (!response.id_json.empty()) {
    out += "\"id\":" + response.id_json + ",";
  }
  if (response.has_type) {
    out += "\"type\":\"";
    out += RequestTypeName(response.type);
    out += "\",";
  }
  out += response.ok ? "\"ok\":true" : "\"ok\":false";
  if (response.trace_id != 0) {
    out += ",\"trace_id\":" + std::to_string(response.trace_id);
  }
  if (!response.ok) {
    out += ",\"error\":\"";
    out += ServeErrorName(response.error);
    out += "\",\"message\":\"" + obs::JsonEscape(response.message) + "\"";
    out += "}";
    return out;
  }
  switch (response.type) {
    case RequestType::kEmbed: {
      out += ",\"embedding\":[";
      for (size_t i = 0; i < response.embedding.size(); ++i) {
        if (i > 0) out += ",";
        out += obs::JsonNumber(response.embedding[i]);
      }
      out += "]";
      break;
    }
    case RequestType::kPredict: {
      out += ",\"score\":" + obs::JsonNumber(response.score);
      out += ",\"label\":" + std::to_string(response.label);
      break;
    }
    case RequestType::kNeighbors: {
      out += ",\"neighbors\":[";
      for (size_t i = 0; i < response.neighbors.size(); ++i) {
        const NeighborHit& hit = response.neighbors[i];
        if (i > 0) out += ",";
        out += "{\"index\":" + std::to_string(hit.index);
        out += ",\"label\":" + std::to_string(hit.label);
        out += ",\"similarity\":" + obs::JsonNumber(hit.similarity) + "}";
      }
      out += "]";
      break;
    }
    case RequestType::kHealthz:
    case RequestType::kStatusz:
    case RequestType::kMetricsz:
    case RequestType::kProfilez:
    case RequestType::kReloadz: {
      // payload_json is produced server-side (never from client input), so
      // it is spliced in verbatim as a complete JSON document.
      out += ",\"payload\":";
      out += response.payload_json.empty() ? "{}" : response.payload_json;
      break;
    }
  }
  out += "}";
  return out;
}

Response MakeErrorResponse(const std::string& id_json, ServeError error,
                           std::string message) {
  Response response;
  response.id_json = id_json;
  response.ok = false;
  response.error = error;
  response.message = std::move(message);
  return response;
}

}  // namespace rll::serve
