#pragma once

// Strict parsing of the ADATTL_* environment defaults used by the benches
// and the parallel executor (ADATTL_REPLICATIONS, ADATTL_DURATION_SEC,
// ADATTL_JOBS). Values are read by the number and integer grammars of
// sim/text.h; a malformed value is rejected with a warning on stderr and
// falls back to the default instead of silently becoming 0 or a
// half-parsed prefix.
//
// Note: for CLI-driven runs (parse_cli / resolve_config), every knob's
// ADATTL_* override is resolved through the parameter registry
// (param_registry.cpp) as an explicit precedence layer with provenance —
// these helpers only back the programmatic bench defaults, where a
// malformed value should warn rather than abort.

namespace adattl::experiment {

/// Reads environment variable `name`. Unset or empty: `fallback`. Not a
/// finite number: warning on stderr, then `fallback`. Otherwise the value
/// clamped to [lo, hi].
double env_double(const char* name, double fallback, double lo, double hi);

/// Same for integral knobs, read by the integer grammar in 64 bits and
/// clamped to [lo, hi] before it narrows to int. `3.5`, `4.0`, `1e3` and
/// `0x10` are malformed rather than truncated or converted.
int env_int(const char* name, int fallback, int lo, int hi);

}  // namespace adattl::experiment
