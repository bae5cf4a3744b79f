#include "telemetry/manifest.hpp"

#include "common/atomic_file.hpp"

namespace sirius::telemetry {

JsonObject& Manifest::section(const std::string& name) {
  for (auto& [key, obj] : sections_) {
    if (key == name) return obj;
  }
  sections_.emplace_back(name, JsonObject{});
  return sections_.back().second;
}

std::string Manifest::build_info_json() {
  JsonObject b;
  add_build_info(b);
  return b.str();
}

void Manifest::add_build_info(JsonObject& b) {
#if defined(__VERSION__)
  b.add("compiler", __VERSION__);
#else
  b.add("compiler", "unknown");
#endif
  b.add_int("cxx_standard", static_cast<std::int64_t>(__cplusplus));
#if defined(NDEBUG)
  b.add_bool("ndebug", true);
#else
  b.add_bool("ndebug", false);
#endif
}

std::string Manifest::to_json() const {
  std::string out = "{\n  \"schema\": \"";
  out += kSchema;
  out += "\"";
  for (const auto& [key, obj] : sections_) {
    out += ",\n  \"" + json_escape(key) + "\": " + obj.str();
  }
  out += "\n}\n";
  return out;
}

bool Manifest::write(const std::string& path) const {
  // Crash-safe: an aborted run leaves the previous manifest (or nothing),
  // never a truncated JSON document.
  return write_file_atomic(path, to_json());
}

}  // namespace sirius::telemetry
