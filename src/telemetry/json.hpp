// Minimal insertion-ordered JSON assembly for telemetry artifacts.
//
// The telemetry subsystem emits three JSON shapes — JSONL metric rows,
// Chrome trace-event arrays, and the run manifest — and all three need
// deterministic key order (artifacts are diffed across runs in tests and
// CI). A full JSON library is overkill and would add a dependency; this is
// the few dozen lines the writers actually need: escaping, number
// formatting that round-trips, and an append-only object builder.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sirius::telemetry {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Formats a double so it parses back bit-exact (%.17g) but prints short
/// round values compactly; infinities and NaN (not valid JSON) become null.
inline std::string json_number(double v) {
  if (!(v == v) || v > 1.7e308 || v < -1.7e308) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest representation that still round-trips.
  char shorter[40];
  std::snprintf(shorter, sizeof shorter, "%.10g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  return back == v ? shorter : buf;
}

/// Append-only JSON object builder: keys keep insertion order, values are
/// pre-rendered JSON fragments. Nested objects compose via str()/add_raw.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value) {
    // Built by append (not operator+ chains): GCC 12 flags the rvalue
    // `const char* + string&&` overload with a spurious -Wrestrict.
    std::string quoted = "\"";
    quoted += json_escape(value);
    quoted += '"';
    return add_raw(key, quoted);
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonObject& add_num(const std::string& key, double v) {
    return add_raw(key, json_number(v));
  }
  JsonObject& add_int(const std::string& key, std::int64_t v) {
    return add_raw(key, std::to_string(v));
  }
  JsonObject& add_bool(const std::string& key, bool v) {
    return add_raw(key, v ? "true" : "false");
  }
  /// `raw_json` must already be valid JSON (a nested object, array, ...).
  JsonObject& add_raw(const std::string& key, const std::string& raw_json) {
    std::string part = "\"";
    part += json_escape(key);
    part += "\": ";
    part += raw_json;
    parts_.push_back(std::move(part));
    return *this;
  }

  [[nodiscard]] bool empty() const { return parts_.empty(); }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += ", ";
      out += parts_[i];
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::string> parts_;
};

/// Renders a list of pre-rendered JSON fragments as a JSON array.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  out += "]";
  return out;
}

}  // namespace sirius::telemetry
