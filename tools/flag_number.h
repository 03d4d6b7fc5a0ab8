#pragma once

// Numeric values of the tools' own flags (the ones the parameter registry
// does not own). The whole value must parse (experiment::parse_env_number:
// no trailing junk, no inf/nan) and be non-negative; anything else prints
// "<tool>: <flag>: expected ..., got '<value>'" and exits 2.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "experiment/env_config.h"

namespace adattl::tools {

[[noreturn]] inline void bad_flag(const char* tool, const std::string& flag,
                                  const char* expected, const std::string& value) {
  std::fprintf(stderr, "%s: %s: expected %s, got '%s'\n", tool, flag.c_str(), expected,
               value.c_str());
  std::exit(2);
}

inline double flag_number(const char* tool, const std::string& flag,
                          const std::string& value) {
  double v = 0.0;
  if (!experiment::parse_env_number(value.c_str(), v) || v < 0) {
    bad_flag(tool, flag, "a non-negative number", value);
  }
  return v;
}

/// A whole number in [0, max].
inline long long flag_integer(const char* tool, const std::string& flag,
                              const std::string& value,
                              long long max = std::numeric_limits<int>::max()) {
  double v = 0.0;
  if (!experiment::parse_env_number(value.c_str(), v) || v < 0 ||
      v > static_cast<double>(max) || v != std::floor(v)) {
    bad_flag(tool, flag, ("an integer in [0, " + std::to_string(max) + "]").c_str(), value);
  }
  return static_cast<long long>(v);
}

}  // namespace adattl::tools
