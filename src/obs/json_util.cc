#include "obs/json_util.h"

#include <charconv>
#include <cmath>

#include "common/strings.h"

namespace rll::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  // std::to_chars with a precision formats as printf's %.17g does; the
  // longest result, "-2.2250738585072014e-308", is 24 characters.
  char buf[32];
  const std::to_chars_result written = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, written.ptr);
}

std::string JsonNumber(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

}  // namespace rll::obs
