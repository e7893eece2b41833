// The serving wire's previous JSON reader and response writer, kept in
// test code as the reference the library's tokenizer-based ParseJson /
// ParseRequest and to_chars-based AppendResponse must match byte for
// byte and bit for bit.

#ifndef RLL_TESTS_WIRE_REFERENCE_H_
#define RLL_TESTS_WIRE_REFERENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace rll::serve::reference {

/// printf("%.17g"), or null for NaN/Inf.
std::string JsonNumber(double value);

/// Recursive descent, numbers through strtod on a copy of the token.
Result<JsonValue> ParseJson(std::string_view text);

/// ParseJson, then the request's members read off the tree.
Result<Request> ParseRequest(const std::string& line, std::string* id_json);

/// One string per response, doubles through JsonNumber above.
std::string SerializeResponse(const Response& response);

/// Runs `input` through the reference and the library: ParseJson (accept
/// or reject, error message, every value and number's bits), ParseRequest
/// (the same, the echoed id and every Request field), and the bad_request
/// or, for an accepted data-plane request, a response built from its
/// fields, through both serializers. "" when every outcome matches, else
/// the first difference.
std::string WireDifference(std::string_view input);

}  // namespace rll::serve::reference

#endif  // RLL_TESTS_WIRE_REFERENCE_H_
