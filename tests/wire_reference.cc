// The serving wire's previous reader and writer, kept verbatim as the
// oracle the differential checks compare the library against: the
// recursive-descent JSON parser (numbers through strtod on a copied
// token), ParseRequest over its tree, and SerializeResponse with every
// double formatted by printf's %.17g. WireDifference runs one input
// through both sides; serve_test's differential suite and
// tools/fuzz/json_fuzz.cc call it.

#include "wire_reference.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "obs/json_util.h"

namespace rll::serve::reference {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

namespace {

/// Nesting bound: protocol messages are two levels deep, so 64 is pure
/// headroom while keeping adversarial inputs from recursing to a crash.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    RLL_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      RLL_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      RLL_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      RLL_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  /// Appends the UTF-8 encoding of `codepoint` to `out`.
  static void AppendUtf8(uint32_t codepoint, std::string* out) {
    if (codepoint < 0x80) {
      out->push_back(static_cast<char>(codepoint));
    } else if (codepoint < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (codepoint >> 6)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else if (codepoint < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (codepoint >> 12)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (codepoint >> 18)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (codepoint & 0x3F)));
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          RLL_RETURN_IF_ERROR(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!ConsumeLiteral("\\u")) {
              return Error("unpaired high surrogate");
            }
            uint32_t low = 0;
            RLL_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
      // Sign handled by strtod; just validate a digit follows.
    }
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return Error("invalid number");
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    // strtod answers +-inf for a magnitude past double's range (1e999);
    // JSON has no infinities, so that is an invalid number too.
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      return Error("invalid number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// Re-serializes a parsed "id" member. Only numbers and strings are
/// accepted (booleans/objects as correlation ids are a client bug worth
/// rejecting loudly).
Result<std::string> SerializeId(const JsonValue& id) {
  if (id.is_number()) return JsonNumber(id.number);
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

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
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
        out += JsonNumber(response.embedding[i]);
      }
      out += "]";
      break;
    }
    case RequestType::kPredict: {
      out += ",\"score\":" + JsonNumber(response.score);
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
        out += ",\"similarity\":" + JsonNumber(hit.similarity) + "}";
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

namespace {

bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

std::string StatusDifference(const char* what, const Status& want,
                             const Status& got) {
  if (want.code() == got.code() && want.message() == got.message()) {
    return "";
  }
  return std::string(what) + ": reference said '" + want.ToString() +
         "', library said '" + got.ToString() + "'";
}

std::string ValueDifference(const JsonValue& want, const JsonValue& got,
                            const std::string& path) {
  if (want.kind != got.kind) return path + ": kind";
  switch (want.kind) {
    case JsonValue::Kind::kNull:
      return "";
    case JsonValue::Kind::kBool:
      return want.boolean == got.boolean ? "" : path + ": boolean";
    case JsonValue::Kind::kNumber:
      return SameBits(want.number, got.number)
                 ? ""
                 : path + ": number " + JsonNumber(want.number) + " vs " +
                       JsonNumber(got.number);
    case JsonValue::Kind::kString:
      return want.string == got.string ? "" : path + ": string";
    case JsonValue::Kind::kArray:
      if (want.array.size() != got.array.size()) return path + ": length";
      for (size_t i = 0; i < want.array.size(); ++i) {
        std::string d = ValueDifference(want.array[i], got.array[i],
                                        path + "[" + std::to_string(i) + "]");
        if (!d.empty()) return d;
      }
      return "";
    case JsonValue::Kind::kObject:
      if (want.object.size() != got.object.size()) return path + ": members";
      for (size_t i = 0; i < want.object.size(); ++i) {
        if (want.object[i].first != got.object[i].first) {
          return path + ": key " + std::to_string(i);
        }
        std::string d =
            ValueDifference(want.object[i].second, got.object[i].second,
                            path + "." + want.object[i].first);
        if (!d.empty()) return d;
      }
      return "";
  }
  return path + ": unknown kind";
}

std::string RequestDifference(const Request& want, const Request& got) {
  if (want.type != got.type) return "request type";
  if (want.id_json != got.id_json) return "request id_json";
  if (want.features.size() != got.features.size()) return "features size";
  for (size_t i = 0; i < want.features.size(); ++i) {
    if (!SameBits(want.features[i], got.features[i])) {
      return "feature " + std::to_string(i) + ": " +
             JsonNumber(want.features[i]) + " vs " +
             JsonNumber(got.features[i]);
    }
  }
  if (want.k != got.k) return "k";
  if (want.profile_action != got.profile_action) return "profile_action";
  if (want.profile_hz != got.profile_hz) return "profile_hz";
  if (want.profile_format != got.profile_format) return "profile_format";
  if (want.reload_action != got.reload_action) return "reload_action";
  if (want.reload_path != got.reload_path) return "reload_path";
  return "";
}

/// A response that carries the request's numbers back out: the features
/// as the embedding, the score and each neighbor's similarity.
Response EchoResponse(const Request& request) {
  Response response;
  response.id_json = request.id_json;
  response.ok = true;
  response.has_type = true;
  response.type = request.type;
  response.trace_id = request.k;
  response.embedding = request.features;
  response.score = request.features.front();
  response.label = static_cast<int>(request.features.size() % 2);
  for (size_t i = 0; i < request.features.size(); ++i) {
    response.neighbors.push_back(
        {i, static_cast<int>(i % 3) - 1, request.features[i]});
  }
  return response;
}

std::string SerializedDifference(const Response& response) {
  const std::string want = reference::SerializeResponse(response);
  // Appending must leave what the buffer already holds alone.
  std::string got = "prefix\n";
  AppendResponse(response, &got);
  if (got != "prefix\n" + want) {
    return "serialized response: reference '" + want + "', library '" +
           got.substr(7) + "'";
  }
  return "";
}

}  // namespace

std::string WireDifference(std::string_view input) {
  const Result<JsonValue> want_json = ParseJson(input);
  const Result<JsonValue> got_json = serve::ParseJson(input);
  std::string d = StatusDifference("ParseJson", want_json.status(),
                                   got_json.status());
  if (!d.empty()) return d;
  if (want_json.ok()) {
    d = ValueDifference(*want_json, *got_json, "$");
    if (!d.empty()) return "ParseJson " + d;
  }

  const std::string line(input);
  std::string want_id = "unset";
  std::string got_id = "unset";
  const Result<Request> want = ParseRequest(line, &want_id);
  const Result<Request> got = serve::ParseRequest(input, &got_id);
  d = StatusDifference("ParseRequest", want.status(), got.status());
  if (!d.empty()) return d;
  if (want_id != got_id) {
    return "echoed id: reference '" + want_id + "', library '" + got_id + "'";
  }
  if (!want.ok()) {
    return SerializedDifference(MakeErrorResponse(
        want_id, ServeError::kBadRequest, want.status().message()));
  }
  d = RequestDifference(*want, *got);
  if (!d.empty()) return "ParseRequest " + d;
  if (IsAdminRequest(want->type)) return "";
  return SerializedDifference(EchoResponse(*want));
}

}  // namespace rll::serve::reference
