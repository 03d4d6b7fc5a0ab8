#include "experiment/env_config.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/text.h"

namespace adattl::experiment {

namespace {

void ignore(const char* name, const char* value, const char* why) {
  std::fprintf(stderr, "adattl: ignoring %s='%s' (%s)\n", name, value, why);
}

}  // namespace

double env_double(const char* name, double fallback, double lo, double hi) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::optional<double> x = text::parse_number(v);
  if (x && std::isfinite(*x)) return std::clamp(*x, lo, hi);
  ignore(name, v, "not a finite number");
  return fallback;
}

int env_int(const char* name, int fallback, int lo, int hi) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::optional<std::int64_t> x = text::parse_integer(v);
  if (x) return static_cast<int>(std::clamp<std::int64_t>(*x, lo, hi));
  ignore(name, v, "not an integer");
  return fallback;
}

}  // namespace adattl::experiment
