#include "common/config.hpp"

#include <cerrno>
#include <cstdlib>

namespace sirius {

std::optional<std::int64_t> parse_int(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(parsed);
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(s.c_str(), &end);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return parsed;
}

std::optional<std::int64_t> env_int(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? std::nullopt : parse_int(v);
}

std::optional<double> env_double(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  return v == nullptr ? std::nullopt : parse_double(v);
}

std::int64_t env_int_or(const std::string& name, std::int64_t fallback) {
  return env_int(name).value_or(fallback);
}

double env_double_or(const std::string& name, double fallback) {
  return env_double(name).value_or(fallback);
}

}  // namespace sirius
