// Strict number parsing for user input, and the environment-variable
// helpers benches use so runs can be scaled without recompiling (e.g.
// SIRIUS_FLOWS=200000 ./bench/fig09_load_sweep).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sirius {

/// Parses all of `s` as a base-10 integer; nullopt if `s` is empty, has
/// anything after the number, or is out of range ("x8", "2e2", "8 ").
std::optional<std::int64_t> parse_int(const std::string& s);

/// Parses all of `s` as a floating-point number; nullopt if `s` is empty,
/// has anything after the number, or is out of range.
std::optional<double> parse_double(const std::string& s);

/// Reads an integer environment variable; empty/unset/unparsable -> nullopt.
std::optional<std::int64_t> env_int(const std::string& name);

/// Reads a floating-point environment variable.
std::optional<double> env_double(const std::string& name);

/// Integer env var with default.
std::int64_t env_int_or(const std::string& name, std::int64_t fallback);

/// Floating-point env var with default.
double env_double_or(const std::string& name, double fallback);

}  // namespace sirius
