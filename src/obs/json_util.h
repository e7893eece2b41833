// Tiny JSON emission helpers shared by the metrics and trace exporters and
// the serving protocol's response writer. Emission only — parsing stays out
// of the library's lower layers; these exporters produce machine-readable
// output, they never consume it.

#ifndef RLL_OBS_JSON_UTIL_H_
#define RLL_OBS_JSON_UTIL_H_

#include <string>
#include <string_view>

namespace rll::obs {

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): backslash, quote, and control characters.
std::string JsonEscape(std::string_view s);

/// Appends a double as a JSON number: a finite value as the 17 significant
/// digits %.17g would print (round-trip exact), written by std::to_chars
/// without printf or a temporary string; NaN/Inf as null (JSON has no
/// literal for them).
void AppendJsonNumber(std::string* out, double value);

/// AppendJsonNumber into a fresh string.
std::string JsonNumber(double value);

}  // namespace rll::obs

#endif  // RLL_OBS_JSON_UTIL_H_
