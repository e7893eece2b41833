#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/json_util.h"
#include "serve/json.h"

namespace rll::serve {

namespace {

using Token = JsonTokenizer::Token;

/// The last occurrence of one request member: its first token and, for a
/// scalar, its value. For "features" the numbers go straight into the
/// request, and `elements` counts every entry, numbers or not.
struct Member {
  bool present = false;
  Token token = Token::kEnd;
  double number = 0.0;
  std::string string;
  size_t elements = 0;

  bool is_number() const { return token == Token::kNumber; }
  bool is_string() const { return token == Token::kString; }
};

/// Reads the value of the member whose key the tokenizer just answered.
/// `member` is null for a key the protocol does not know: its value is
/// checked and skipped. A later duplicate key overwrites an earlier one.
Status ReadMember(JsonTokenizer* tokenizer, std::string_view line,
                  Member* member, std::vector<double>* numbers) {
  Token token = Token::kEnd;
  RLL_RETURN_IF_ERROR(tokenizer->Next(&token));
  if (member == nullptr) {
    const bool container =
        token == Token::kObjectBegin || token == Token::kArrayBegin;
    return container ? tokenizer->SkipContainer() : Status::OK();
  }
  member->present = true;
  member->token = token;
  if (token == Token::kNumber) member->number = tokenizer->number();
  if (token == Token::kString) member->string = tokenizer->string();
  if (token == Token::kObjectBegin) return tokenizer->SkipContainer();
  if (token != Token::kArrayBegin) return Status::OK();
  if (numbers == nullptr) return tokenizer->SkipContainer();
  // A feature row is one flat array, so its commas count its entries.
  const std::string_view rest = line.substr(tokenizer->offset());
  const std::string_view row = rest.substr(0, rest.find(']'));
  numbers->clear();
  numbers->reserve(
      static_cast<size_t>(std::count(row.begin(), row.end(), ',')) + 1);
  member->elements = 0;
  for (;;) {
    RLL_RETURN_IF_ERROR(tokenizer->Next(&token));
    if (token == Token::kArrayEnd) return Status::OK();
    ++member->elements;
    if (token == Token::kNumber) numbers->push_back(tokenizer->number());
    if (token == Token::kObjectBegin || token == Token::kArrayBegin) {
      RLL_RETURN_IF_ERROR(tokenizer->SkipContainer());
    }
  }
}

/// Re-serializes a parsed "id" member. Only numbers and strings are
/// accepted (booleans/objects as correlation ids are a client bug worth
/// rejecting loudly).
Result<std::string> SerializeId(const Member& id) {
  if (id.is_number()) return obs::JsonNumber(id.number);
  if (id.is_string()) return "\"" + obs::JsonEscape(id.string) + "\"";
  return Status::InvalidArgument("\"id\" must be a number or a string");
}

/// Appends an integer's decimal digits.
template <typename Int>
void AppendInteger(std::string* out, Int value) {
  char buf[24];
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, written.ptr);
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

Result<Request> ParseRequest(std::string_view line, std::string* id_json) {
  id_json->clear();
  JsonTokenizer tokenizer(line);
  Token token = Token::kEnd;
  RLL_RETURN_IF_ERROR(tokenizer.Next(&token));
  const bool is_object = token == Token::kObjectBegin;
  Request request;
  Member id, type, features, k, action, hz, format, path;
  const std::pair<std::string_view, Member*> members[] = {
      {"id", &id},         {"type", &type}, {"features", &features},
      {"k", &k},           {"action", &action}, {"hz", &hz},
      {"format", &format}, {"path", &path}};
  if (is_object) {
    for (;;) {
      RLL_RETURN_IF_ERROR(tokenizer.Next(&token));
      if (token == Token::kObjectEnd) break;
      Member* member = nullptr;
      for (const auto& [key, slot] : members) {
        if (tokenizer.string() == key) member = slot;
      }
      RLL_RETURN_IF_ERROR(ReadMember(
          &tokenizer, line, member,
          member == &features ? &request.features : nullptr));
    }
  } else if (token == Token::kArrayBegin) {
    RLL_RETURN_IF_ERROR(tokenizer.SkipContainer());
  }
  // The whole line parses before any member is judged, so a syntax error
  // anywhere wins over a semantic one.
  RLL_RETURN_IF_ERROR(tokenizer.Next(&token));
  if (!is_object) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  if (id.present) {
    RLL_ASSIGN_OR_RETURN(request.id_json, SerializeId(id));
    *id_json = request.id_json;
  }

  if (!type.present || !type.is_string()) {
    return Status::InvalidArgument("missing or non-string \"type\"");
  }
  if (type.string == "embed") {
    request.type = RequestType::kEmbed;
  } else if (type.string == "predict") {
    request.type = RequestType::kPredict;
  } else if (type.string == "neighbors") {
    request.type = RequestType::kNeighbors;
  } else if (type.string == "healthz") {
    request.type = RequestType::kHealthz;
  } else if (type.string == "statusz") {
    request.type = RequestType::kStatusz;
  } else if (type.string == "metricsz") {
    request.type = RequestType::kMetricsz;
  } else if (type.string == "profilez") {
    request.type = RequestType::kProfilez;
  } else if (type.string == "reloadz") {
    request.type = RequestType::kReloadz;
  } else {
    return Status::InvalidArgument("unknown \"type\": " + type.string);
  }

  if (IsAdminRequest(request.type)) {
    if (features.present) {
      return Status::InvalidArgument("\"" + type.string +
                                     "\" takes no \"features\"");
    }
    if (k.present) {
      return Status::InvalidArgument("\"k\" is only valid for neighbors");
    }
    if (request.type == RequestType::kReloadz) {
      if (hz.present || format.present) {
        return Status::InvalidArgument(
            "\"hz\"/\"format\" are only valid for profilez");
      }
      if (!action.present || !action.is_string()) {
        return Status::InvalidArgument(
            "reloadz requires a string \"action\"");
      }
      if (action.string == "reload") {
        request.reload_action = ReloadAction::kReload;
      } else if (action.string == "status") {
        request.reload_action = ReloadAction::kStatus;
      } else {
        return Status::InvalidArgument("unknown reloadz \"action\": " +
                                       action.string);
      }
      if (path.present) {
        if (request.reload_action != ReloadAction::kReload) {
          return Status::InvalidArgument(
              "\"path\" is only valid with action \"reload\"");
        }
        if (!path.is_string() || path.string.empty()) {
          return Status::InvalidArgument(
              "\"path\" must be a non-empty string");
        }
        request.reload_path = path.string;
      }
      return request;
    }
    if (path.present) {
      return Status::InvalidArgument("\"path\" is only valid for reloadz");
    }
    if (request.type != RequestType::kProfilez) {
      if (action.present || hz.present || format.present) {
        return Status::InvalidArgument(
            "\"action\"/\"hz\"/\"format\" are only valid for profilez");
      }
      return request;
    }
    if (!action.present || !action.is_string()) {
      return Status::InvalidArgument(
          "profilez requires a string \"action\"");
    }
    if (action.string == "start") {
      request.profile_action = ProfileAction::kStart;
    } else if (action.string == "stop") {
      request.profile_action = ProfileAction::kStop;
    } else if (action.string == "fetch") {
      request.profile_action = ProfileAction::kFetch;
    } else {
      return Status::InvalidArgument("unknown profilez \"action\": " +
                                     action.string);
    }
    if (hz.present) {
      if (request.profile_action != ProfileAction::kStart) {
        return Status::InvalidArgument(
            "\"hz\" is only valid with action \"start\"");
      }
      if (!hz.is_number() || !IsPositiveInteger<int>(hz.number)) {
        return Status::InvalidArgument("\"hz\" must be a positive integer");
      }
      request.profile_hz = static_cast<int>(hz.number);
    }
    if (format.present) {
      if (request.profile_action != ProfileAction::kFetch) {
        return Status::InvalidArgument(
            "\"format\" is only valid with action \"fetch\"");
      }
      if (!format.is_string()) {
        return Status::InvalidArgument("\"format\" must be a string");
      }
      if (format.string == "folded") {
        request.profile_format = ProfileFormat::kFolded;
      } else if (format.string == "json") {
        request.profile_format = ProfileFormat::kJson;
      } else {
        return Status::InvalidArgument("unknown profilez \"format\": " +
                                       format.string);
      }
    }
    return request;
  }
  if (action.present || hz.present || format.present) {
    return Status::InvalidArgument(
        "\"action\"/\"hz\"/\"format\" are only valid for profilez");
  }
  if (path.present) {
    return Status::InvalidArgument("\"path\" is only valid for reloadz");
  }

  if (!features.present || features.token != Token::kArrayBegin) {
    return Status::InvalidArgument("missing or non-array \"features\"");
  }
  if (features.elements == 0) {
    return Status::InvalidArgument("\"features\" must be non-empty");
  }
  if (request.features.size() != features.elements) {
    return Status::InvalidArgument("\"features\" entries must be numbers");
  }

  if (k.present) {
    if (request.type != RequestType::kNeighbors) {
      return Status::InvalidArgument("\"k\" is only valid for neighbors");
    }
    if (!k.is_number() || !IsPositiveInteger<size_t>(k.number)) {
      return Status::InvalidArgument("\"k\" must be a positive integer");
    }
    request.k = static_cast<size_t>(k.number);
  }
  return request;
}

void AppendResponse(const Response& response, std::string* out) {
  // A number takes at most 25 bytes with its comma, a neighbor hit at
  // most 96 and the envelope under 128 besides the id and payload, so a
  // data-plane line grows the buffer at most once.
  out->reserve(out->size() + 128 + response.id_json.size() +
               response.payload_json.size() +
               25 * response.embedding.size() +
               96 * response.neighbors.size());
  out->push_back('{');
  if (!response.id_json.empty()) {
    out->append("\"id\":");
    out->append(response.id_json);
    out->push_back(',');
  }
  if (response.has_type) {
    out->append("\"type\":\"");
    out->append(RequestTypeName(response.type));
    out->append("\",");
  }
  out->append(response.ok ? "\"ok\":true" : "\"ok\":false");
  if (response.trace_id != 0) {
    out->append(",\"trace_id\":");
    AppendInteger(out, response.trace_id);
  }
  if (!response.ok) {
    out->append(",\"error\":\"");
    out->append(ServeErrorName(response.error));
    out->append("\",\"message\":\"");
    out->append(obs::JsonEscape(response.message));
    out->append("\"}");
    return;
  }
  switch (response.type) {
    case RequestType::kEmbed: {
      out->append(",\"embedding\":[");
      for (size_t i = 0; i < response.embedding.size(); ++i) {
        if (i > 0) out->push_back(',');
        obs::AppendJsonNumber(out, response.embedding[i]);
      }
      out->push_back(']');
      break;
    }
    case RequestType::kPredict: {
      out->append(",\"score\":");
      obs::AppendJsonNumber(out, response.score);
      out->append(",\"label\":");
      AppendInteger(out, response.label);
      break;
    }
    case RequestType::kNeighbors: {
      out->append(",\"neighbors\":[");
      for (size_t i = 0; i < response.neighbors.size(); ++i) {
        const NeighborHit& hit = response.neighbors[i];
        if (i > 0) out->push_back(',');
        out->append("{\"index\":");
        AppendInteger(out, hit.index);
        out->append(",\"label\":");
        AppendInteger(out, hit.label);
        out->append(",\"similarity\":");
        obs::AppendJsonNumber(out, hit.similarity);
        out->push_back('}');
      }
      out->push_back(']');
      break;
    }
    case RequestType::kHealthz:
    case RequestType::kStatusz:
    case RequestType::kMetricsz:
    case RequestType::kProfilez:
    case RequestType::kReloadz: {
      // payload_json is produced server-side (never from client input), so
      // it is spliced in verbatim as a complete JSON document.
      out->append(",\"payload\":");
      out->append(response.payload_json.empty() ? "{}"
                                                 : response.payload_json);
      break;
    }
  }
  out->push_back('}');
}

std::string SerializeResponse(const Response& response) {
  std::string out;
  AppendResponse(response, &out);
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
