// JSON text helpers shared by the obs exporters and the bench reports: one
// string escaper and one round-trip double renderer, so every dump escapes
// and renders numbers the same way.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace bmp::obs {

/// Appends `text` JSON-escaped, without quotes: `"` and `\` get a
/// backslash, newline and tab their short escapes, other control bytes
/// \u00XX.
inline void append_escaped(std::string& out, std::string_view text) {
  const auto needs_escape = [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  };
  // Fast path: event names, phase paths and keys are plain identifiers, so
  // the whole string almost always appends in one piece.
  std::size_t clean = 0;
  while (clean < text.size() && !needs_escape(text[clean])) ++clean;
  out.append(text.data(), clean);
  for (const char c : text.substr(clean)) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// `text` JSON-escaped, as a new string (see append_escaped).
[[nodiscard]] inline std::string escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

/// %.17g round-trips every finite double exactly: a dump reloads to the
/// same bits (dump -> parse -> re-dump is byte-identical), and two runs
/// render the same bytes.
[[nodiscard]] inline std::string render_exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace bmp::obs
