#include "serve/json.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <system_error>

namespace rll::serve {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Appends the UTF-8 encoding of `codepoint` to `out`.
void AppendUtf8(uint32_t codepoint, std::string* out) {
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

/// For a number token std::from_chars found out of range: true when it
/// overflows, false when it underflows. Its leading nonzero digit's
/// decimal exponent tells them apart: at least 308 for an overflow, below
/// -323 for an underflow (a zero mantissa is never out of range).
bool Overflows(std::string_view token) {
  const size_t e = token.find_first_of("eE");
  const std::string_view mantissa = token.substr(0, e);
  const auto first = static_cast<int64_t>(mantissa.find_first_of("123456789"));
  const auto point =
      static_cast<int64_t>(std::min(mantissa.find('.'), mantissa.size()));
  int64_t magnitude = first < point ? point - first - 1 : point - first;
  if (e != std::string_view::npos) {
    // Saturates far above any token length, so the sum keeps its sign.
    constexpr int64_t kCap = 100'000'000'000'000'000;
    int64_t exponent = 0;
    for (const char c : token.substr(e + 1)) {
      if (IsDigit(c) && exponent < kCap) exponent = exponent * 10 + (c - '0');
    }
    magnitude += token[e + 1] == '-' ? -exponent : exponent;
  }
  return magnitude >= 0;
}

}  // namespace

Status JsonTokenizer::Error(const char* message) const {
  return Status::InvalidArgument("json parse error at offset " +
                                 std::to_string(pos_) + ": " + message);
}

void JsonTokenizer::SkipWhitespace() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonTokenizer::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonTokenizer::ConsumeLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

Status JsonTokenizer::Next(Token* token) {
  switch (state_) {
    case State::kValue:
      return ReadValue(token);
    case State::kObjectOpened:
      SkipWhitespace();
      if (Consume('}')) break;
      return ReadKey(token);
    case State::kArrayOpened:
      SkipWhitespace();
      if (Consume(']')) break;
      return ReadValue(token);
    case State::kAfterValue:
      SkipWhitespace();
      if (depth_ == 0) {
        if (pos_ != text_.size()) {
          return Error("trailing characters after JSON value");
        }
        state_ = State::kDone;
        *token = Token::kEnd;
        return Status::OK();
      }
      if (in_object_[depth_ - 1]) {
        if (Consume('}')) break;
        if (!Consume(',')) return Error("expected ',' or '}' in object");
        return ReadKey(token);
      }
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
      return ReadValue(token);
    case State::kDone:
      *token = Token::kEnd;
      return Status::OK();
  }
  // A container closed.
  --depth_;
  *token = in_object_[depth_] ? Token::kObjectEnd : Token::kArrayEnd;
  state_ = State::kAfterValue;
  return Status::OK();
}

Status JsonTokenizer::SkipContainer() {
  const int outer = depth_ - 1;
  Token token = Token::kEnd;
  while (depth_ > outer) RLL_RETURN_IF_ERROR(Next(&token));
  return Status::OK();
}

Status JsonTokenizer::ReadValue(Token* token) {
  // The depth is checked before the value's leading whitespace, so the
  // error names the offset the value was asked for at.
  if (depth_ > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  state_ = State::kAfterValue;
  switch (text_[pos_]) {
    case '{':
    case '[': {
      const bool object = text_[pos_] == '{';
      ++pos_;
      in_object_[depth_++] = object;
      state_ = object ? State::kObjectOpened : State::kArrayOpened;
      *token = object ? Token::kObjectBegin : Token::kArrayBegin;
      return Status::OK();
    }
    case '"':
      *token = Token::kString;
      return ReadString();
    case 't':
      if (!ConsumeLiteral("true")) return Error("invalid literal");
      *token = Token::kTrue;
      return Status::OK();
    case 'f':
      if (!ConsumeLiteral("false")) return Error("invalid literal");
      *token = Token::kFalse;
      return Status::OK();
    case 'n':
      if (!ConsumeLiteral("null")) return Error("invalid literal");
      *token = Token::kNull;
      return Status::OK();
    default:
      *token = Token::kNumber;
      return ReadNumber();
  }
}

Status JsonTokenizer::ReadKey(Token* token) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected object key string");
  }
  RLL_RETURN_IF_ERROR(ReadString());
  SkipWhitespace();
  if (!Consume(':')) return Error("expected ':' after object key");
  state_ = State::kValue;
  *token = Token::kKey;
  return Status::OK();
}

Status JsonTokenizer::ReadHex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
  uint32_t value = 0;
  for (size_t i = 0; i < 4; ++i) {
    const char c = text_[pos_ + i];
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

Status JsonTokenizer::ReadString() {
  const size_t start = ++pos_;  // past the opening '"'
  // Fast path: a literal without escapes is a view into the input.
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
    if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
      return Error("unescaped control character in string");
    }
    ++pos_;
  }
  if (pos_ >= text_.size()) return Error("unterminated string");
  if (text_[pos_] == '"') {
    string_ = text_.substr(start, pos_ - start);
    ++pos_;
    return Status::OK();
  }
  scratch_.assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      string_ = scratch_;
      return Status::OK();
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("unescaped control character in string");
    }
    if (c != '\\') {
      scratch_.push_back(c);
      ++pos_;
      continue;
    }
    ++pos_;  // '\'
    if (pos_ >= text_.size()) return Error("truncated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch_.push_back('"'); break;
      case '\\': scratch_.push_back('\\'); break;
      case '/': scratch_.push_back('/'); break;
      case 'b': scratch_.push_back('\b'); break;
      case 'f': scratch_.push_back('\f'); break;
      case 'n': scratch_.push_back('\n'); break;
      case 'r': scratch_.push_back('\r'); break;
      case 't': scratch_.push_back('\t'); break;
      case 'u': {
        uint32_t code = 0;
        RLL_RETURN_IF_ERROR(ReadHex4(&code));
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00..\uDFFF.
          if (!ConsumeLiteral("\\u")) return Error("unpaired high surrogate");
          uint32_t low = 0;
          RLL_RETURN_IF_ERROR(ReadHex4(&low));
          if (low < 0xDC00 || low > 0xDFFF) {
            return Error("invalid low surrogate");
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          return Error("unpaired low surrogate");
        }
        AppendUtf8(code, &scratch_);
        break;
      }
      default:
        return Error("invalid escape character");
    }
  }
  return Error("unterminated string");
}

Status JsonTokenizer::ReadNumber() {
  const size_t start = pos_;
  Consume('-');
  if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
    pos_ = start;
    return Error("invalid number");
  }
  while (pos_ < text_.size() &&
         (IsDigit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
          text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  // The token must be all number, as strtod would read it whole; from
  // the token's charset, from_chars matches exactly strtod's pattern.
  // Where it reports a value out of range, an underflow reads as a zero
  // of the token's sign (strtod's answer) and an overflow fails
  // (strtod's ±inf is no JSON number).
  const std::string_view token = text_.substr(start, pos_ - start);
  const std::from_chars_result parsed =
      std::from_chars(token.data(), token.data() + token.size(), number_);
  if (parsed.ptr != token.data() + token.size() ||
      (parsed.ec == std::errc::result_out_of_range && Overflows(token))) {
    pos_ = start;
    return Error("invalid number");
  }
  if (parsed.ec == std::errc::result_out_of_range) {
    number_ = token[0] == '-' ? -0.0 : 0.0;
  }
  return Status::OK();
}

namespace {

/// Builds the value whose first token is `token`.
Status BuildValue(JsonTokenizer* tokenizer, JsonTokenizer::Token token,
                  JsonValue* out) {
  using Token = JsonTokenizer::Token;
  switch (token) {
    case Token::kObjectBegin:
      out->kind = JsonValue::Kind::kObject;
      for (;;) {
        RLL_RETURN_IF_ERROR(tokenizer->Next(&token));
        if (token == Token::kObjectEnd) return Status::OK();
        auto& member = out->object.emplace_back(
            std::string(tokenizer->string()), JsonValue());
        RLL_RETURN_IF_ERROR(tokenizer->Next(&token));
        RLL_RETURN_IF_ERROR(BuildValue(tokenizer, token, &member.second));
      }
    case Token::kArrayBegin:
      out->kind = JsonValue::Kind::kArray;
      for (;;) {
        RLL_RETURN_IF_ERROR(tokenizer->Next(&token));
        if (token == Token::kArrayEnd) return Status::OK();
        RLL_RETURN_IF_ERROR(
            BuildValue(tokenizer, token, &out->array.emplace_back()));
      }
    case Token::kString:
      out->kind = JsonValue::Kind::kString;
      out->string = tokenizer->string();
      return Status::OK();
    case Token::kNumber:
      out->kind = JsonValue::Kind::kNumber;
      out->number = tokenizer->number();
      return Status::OK();
    case Token::kTrue:
    case Token::kFalse:
      out->kind = JsonValue::Kind::kBool;
      out->boolean = token == Token::kTrue;
      return Status::OK();
    case Token::kNull:
      out->kind = JsonValue::Kind::kNull;
      return Status::OK();
    case Token::kEnd:
    case Token::kObjectEnd:
    case Token::kArrayEnd:
    case Token::kKey:
      break;
  }
  return Status::Internal("json tokenizer answered out of order");
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;
  }
  return found;
}

Result<JsonValue> ParseJson(std::string_view text) {
  JsonTokenizer tokenizer(text);
  JsonTokenizer::Token token = JsonTokenizer::Token::kEnd;
  RLL_RETURN_IF_ERROR(tokenizer.Next(&token));
  JsonValue value;
  RLL_RETURN_IF_ERROR(BuildValue(&tokenizer, token, &value));
  RLL_RETURN_IF_ERROR(tokenizer.Next(&token));
  return value;
}

}  // namespace rll::serve
