#pragma once

// Values of the tools' own flags (the ones the parameter registry does not
// own), read by the grammars of sim/text.h. Anything else prints
// "<tool>: <flag>: expected ..., got '<value>'" and exits 2.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "sim/text.h"

namespace adattl::tools {

[[noreturn]] inline void bad_flag(const char* tool, const std::string& flag,
                                  const std::string& expected, const std::string& value) {
  std::fprintf(stderr, "%s: %s: expected %s, got '%s'\n", tool, flag.c_str(), expected.c_str(),
               value.c_str());
  std::exit(2);
}

/// A finite number >= 0.
inline double flag_number(const char* tool, const std::string& flag, const std::string& value) {
  const std::optional<double> v = text::parse_number(value);
  if (!v || !(*v >= 0) || !std::isfinite(*v)) {
    bad_flag(tool, flag, "a non-negative number", value);
  }
  return *v;
}

/// A whole number in [0, max].
inline std::int64_t flag_integer(const char* tool, const std::string& flag,
                                 const std::string& value,
                                 std::int64_t max = std::numeric_limits<int>::max()) {
  const std::optional<std::int64_t> v = text::parse_integer(value, 0, max);
  if (!v) bad_flag(tool, flag, "an integer in [0, " + std::to_string(max) + "]", value);
  return *v;
}

/// A bare flag (true), or `=` and the bool grammar: true/1, false/0.
inline bool flag_bool(const char* tool, const std::string& flag, const std::string& value,
                      bool has_value) {
  if (!has_value) return true;
  const std::optional<bool> v = text::parse_bool(value);
  if (!v) bad_flag(tool, flag, "true/false", value);
  return *v;
}

}  // namespace adattl::tools
