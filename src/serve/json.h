// JSON reading for the serving protocol (newline-delimited JSON requests):
// one pull tokenizer over a string_view, and a JsonValue tree built from
// it. Parsing lives here, in the transport layer, by design:
// obs/json_util stays emission-only, and nothing below src/serve ever
// consumes JSON.
//
// Supported: objects, arrays, strings (with \uXXXX escapes, surrogate
// pairs), numbers, true/false/null. A number is read by std::from_chars
// from the token's bytes in place, to the same bits strtod gives, so it
// round-trips exactly with obs::JsonNumber's 17 digits. A token whose
// value underflows reads as a zero of its sign, as strtod answers; one
// past double's range (1e999) is an invalid number. Depth-capped at 64
// nested values, so a hostile request cannot run up unbounded state.

#ifndef RLL_SERVE_JSON_H_
#define RLL_SERVE_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rll::serve {

/// Pulls one JSON value's tokens out of `text`, checking the grammar as it
/// goes. Errors read "json parse error at offset N: ..."; the first one
/// ends the stream. After the top-level value it answers kEnd, or an
/// error if anything but whitespace follows.
class JsonTokenizer {
 public:
  enum class Token {
    kEnd,
    kObjectBegin,
    kObjectEnd,
    kArrayBegin,
    kArrayEnd,
    kKey,  // An object member's key; its ':' is consumed too.
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
  };

  explicit JsonTokenizer(std::string_view text) : text_(text) {}

  Status Next(Token* token);

  /// After Next answered kObjectBegin or kArrayBegin: reads up to and
  /// including the matching end, checking everything in between.
  Status SkipContainer();

  /// The last kNumber's value.
  double number() const { return number_; }
  /// The last kKey's or kString's decoded text. A view into the input
  /// when the literal has no escapes; valid until the next call.
  std::string_view string() const { return string_; }
  /// Byte offset of the next unread character.
  size_t offset() const { return pos_; }

 private:
  enum class State { kValue, kObjectOpened, kArrayOpened, kAfterValue, kDone };

  /// Values nest at most this deep (the top-level value is depth 0): 64
  /// is pure headroom over the protocol's two levels, and bounds what a
  /// hostile line can make the reader track.
  static constexpr int kMaxDepth = 64;

  Status Error(const char* message) const;
  void SkipWhitespace();
  bool Consume(char c);
  bool ConsumeLiteral(std::string_view literal);
  Status ReadValue(Token* token);
  Status ReadKey(Token* token);
  Status ReadString();
  Status ReadHex4(uint32_t* out);
  Status ReadNumber();

  std::string_view text_;
  size_t pos_ = 0;
  State state_ = State::kValue;
  /// Open containers, innermost last: true for an object.
  int depth_ = 0;
  bool in_object_[kMaxDepth + 1] = {};
  double number_ = 0.0;
  std::string_view string_;
  /// Decoded text of a string literal that has escapes.
  std::string scratch_;
};

/// One parsed JSON value. A plain tagged struct rather than a variant:
/// protocol messages are tiny, so the unused members cost nothing that
/// matters, and field access stays greppable.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order (duplicate keys keep the last occurrence
  /// reachable via Find, matching common JSON semantics).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Last member with the given key, or nullptr (also nullptr when this is
  /// not an object).
  const JsonValue* Find(std::string_view key) const;
};

/// Parses exactly one JSON value; trailing non-whitespace is an error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace rll::serve

#endif  // RLL_SERVE_JSON_H_
