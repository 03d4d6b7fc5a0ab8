#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "web/types.h"
#include "workload/think_time_model.h"

namespace adattl::workload {

/// One point of an arrival-rate trace: at `at_sec`, domain `domain`'s
/// request rate becomes `rate_multiplier` x its base rate. Trace points
/// are ABSOLUTE multipliers (replayed through ThinkTimeModel::set_rate),
/// unlike RateShift factors which compose — so replaying a trace twice,
/// or resuming mid-trace, lands on the same rates.
struct TraceEvent {
  double at_sec = 0.0;
  web::DomainId domain = 0;
  double rate_multiplier = 1.0;
};

/// Parses the trace CSV schema: one `t_sec,domain,rate_multiplier` row per
/// line, fields trimmed; blank lines and comments are skipped (a `#` at the
/// start of a line or after a space or tab, as in scenario files), and one
/// optional header row naming the columns is tolerated. t_sec and
/// rate_multiplier follow the number grammar and domain the integer
/// grammar (sim/text.h). Throws std::invalid_argument with the 1-based
/// line number on malformed rows. Row order is preserved (same-timestamp
/// rows replay in file order).
std::vector<TraceEvent> parse_trace_csv(const std::string& csv);

/// Reads and parses a trace file: std::runtime_error when it cannot be
/// read, std::invalid_argument naming the file for a malformed row.
std::vector<TraceEvent> load_trace_file(const std::string& path);

/// Serializes events to the CSV schema parse_trace_csv reads (round-trips
/// exactly: doubles are printed with max_digits10 precision).
std::string trace_to_csv(const std::vector<TraceEvent>& events);

/// Validates a trace against a domain universe: finite non-negative times,
/// domains in [0, num_domains), multipliers finite and inside
/// ThinkTimeModel's validated range. Throws std::invalid_argument naming
/// the offending event index.
void validate_trace(const std::vector<TraceEvent>& events, int num_domains);

/// Schedules a trace into a simulator: each event fires
/// `think.set_rate(domain, rate_multiplier)` at its timestamp. Every event
/// is scheduled; a domain-sharded run passes each shard only the events of
/// the domains that shard owns.
void schedule_trace(sim::Simulator& sim, ThinkTimeModel& think,
                    const std::vector<TraceEvent>& events);

// ---------------------------------------------------------------------------
// Generators (the `adattl_tracegen` tool wraps these): each emits a
// deterministic trace — reproducible artifacts, committed or regenerated at
// will. All rates are multipliers of the domain's base rate.
// ---------------------------------------------------------------------------

/// A flash crowd on one domain: baseline until `start_sec`, linear ramp to
/// `peak_multiplier` over `ramp_sec`, hold for `hold_sec`, linear decay
/// back to baseline over `decay_sec`. Sampled every `step_sec`.
struct FlashCrowdSpec {
  web::DomainId domain = 0;
  double start_sec = 3600.0;
  double ramp_sec = 600.0;
  double hold_sec = 1800.0;
  double decay_sec = 1200.0;
  double peak_multiplier = 8.0;
  double step_sec = 60.0;
};
std::vector<TraceEvent> generate_flash_crowd(const FlashCrowdSpec& spec);

/// Diurnal sinusoids for every domain: multiplier(t) = 1 + amplitude *
/// sin(2π (t + phase_d) / period_sec), with per-domain phases spread
/// evenly over `phase_spread_sec` (0 = all domains peak together).
/// Amplitude must lie in [0, 1) so the multiplier stays positive.
struct DiurnalSpec {
  double duration_sec = 86400.0;
  double period_sec = 86400.0;
  double amplitude = 0.6;
  double phase_spread_sec = 0.0;
  double step_sec = 300.0;
};
std::vector<TraceEvent> generate_diurnal(const DiurnalSpec& spec, int num_domains);

/// Regime-shifting popularity: one domain at a time is "hot"
/// (`hot_multiplier`), the rest at baseline; the hot spot moves to a
/// uniformly-chosen other domain after an exponential dwell. Seeded —
/// the same spec always yields the same trace.
struct RegimeShiftSpec {
  double duration_sec = 86400.0;
  double mean_dwell_sec = 7200.0;
  double hot_multiplier = 6.0;
  std::uint64_t seed = 1;
};
std::vector<TraceEvent> generate_regime_shifts(const RegimeShiftSpec& spec,
                                               int num_domains);

}  // namespace adattl::workload
