#include "workload/trace.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/random.h"
#include "sim/text.h"

namespace adattl::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

[[noreturn]] void bad_row(int line_no, const std::string& why) {
  throw std::invalid_argument("trace CSV line " + std::to_string(line_no) + ": " + why);
}

double parse_number(const std::string& field, int line_no, const char* what) {
  const std::optional<double> value = text::parse_number(field);
  if (!value) bad_row(line_no, std::string(what) + ": expected a number, got '" + field + "'");
  return *value;
}

}  // namespace

std::vector<TraceEvent> parse_trace_csv(const std::string& csv) {
  std::vector<TraceEvent> events;
  for (const text::Line& line : text::lines(csv)) {
    std::vector<std::string> f = text::split(line.text, ',');
    if (f.size() < 3) {
      bad_row(line.number, "expected t_sec,domain,rate_multiplier, got '" + line.text + "'");
    }
    if (f.size() > 3) bad_row(line.number, "too many fields in '" + line.text + "'");
    for (std::string& field : f) field = text::trim(field);

    // One header row is tolerated before any data.
    if (events.empty() && f[0] == "t_sec") continue;

    TraceEvent ev;
    ev.at_sec = parse_number(f[0], line.number, "t_sec");
    const std::optional<std::int64_t> domain = text::parse_integer(f[1], 0, INT_MAX);
    if (!domain) {
      bad_row(line.number, "domain must be a non-negative integer, got '" + f[1] + "'");
    }
    ev.domain = static_cast<web::DomainId>(*domain);
    ev.rate_multiplier = parse_number(f[2], line.number, "rate_multiplier");
    events.push_back(ev);
  }
  return events;
}

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  const std::string csv = text::read_file(path, "trace file");
  try {
    return parse_trace_csv(csv);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("trace file '" + path + "': " + e.what());
  }
}

std::string trace_to_csv(const std::vector<TraceEvent>& events) {
  std::string out = "t_sec,domain,rate_multiplier\n";
  char row[96];
  for (const TraceEvent& ev : events) {
    // %.17g round-trips any double exactly through parse_trace_csv.
    std::snprintf(row, sizeof(row), "%.17g,%d,%.17g\n", ev.at_sec, ev.domain,
                  ev.rate_multiplier);
    out += row;
  }
  return out;
}

void validate_trace(const std::vector<TraceEvent>& events, int num_domains) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    const std::string at = "trace event " + std::to_string(i) + ": ";
    if (!std::isfinite(ev.at_sec) || ev.at_sec < 0) {
      throw std::invalid_argument(at + "t_sec must be finite and >= 0");
    }
    if (ev.domain < 0 || ev.domain >= num_domains) {
      throw std::invalid_argument(at + "domain " + std::to_string(ev.domain) +
                                  " outside [0, " + std::to_string(num_domains) + ")");
    }
    if (!std::isfinite(ev.rate_multiplier) ||
        ev.rate_multiplier < ThinkTimeModel::kMinRateMultiplier ||
        ev.rate_multiplier > ThinkTimeModel::kMaxRateMultiplier) {
      throw std::invalid_argument(at + "rate_multiplier must lie in [1e-6, 1e6]");
    }
  }
}

void schedule_trace(sim::Simulator& sim, ThinkTimeModel& think,
                    const std::vector<TraceEvent>& events) {
  for (const TraceEvent& ev : events) {
    ThinkTimeModel* t = &think;
    sim.at(ev.at_sec, [t, ev] { t->set_rate(ev.domain, ev.rate_multiplier); });
  }
}

std::vector<TraceEvent> generate_flash_crowd(const FlashCrowdSpec& spec) {
  if (spec.step_sec <= 0 || spec.peak_multiplier <= 0 || spec.start_sec < 0 ||
      spec.ramp_sec < 0 || spec.hold_sec < 0 || spec.decay_sec < 0) {
    throw std::invalid_argument("generate_flash_crowd: bad spec");
  }
  std::vector<TraceEvent> events;
  const double end = spec.start_sec + spec.ramp_sec + spec.hold_sec + spec.decay_sec;
  events.push_back({0.0, spec.domain, 1.0});
  for (double t = spec.start_sec; t < end; t += spec.step_sec) {
    double mult = 1.0;
    if (t < spec.start_sec + spec.ramp_sec) {
      const double frac = spec.ramp_sec > 0 ? (t - spec.start_sec) / spec.ramp_sec : 1.0;
      mult = 1.0 + frac * (spec.peak_multiplier - 1.0);
    } else if (t < spec.start_sec + spec.ramp_sec + spec.hold_sec) {
      mult = spec.peak_multiplier;
    } else if (spec.decay_sec > 0) {
      const double frac =
          (t - spec.start_sec - spec.ramp_sec - spec.hold_sec) / spec.decay_sec;
      mult = spec.peak_multiplier - frac * (spec.peak_multiplier - 1.0);
    }
    events.push_back({t, spec.domain, mult});
  }
  events.push_back({end, spec.domain, 1.0});
  return events;
}

std::vector<TraceEvent> generate_diurnal(const DiurnalSpec& spec, int num_domains) {
  if (num_domains < 1 || spec.duration_sec <= 0 || spec.period_sec <= 0 ||
      spec.step_sec <= 0 || spec.amplitude < 0 || spec.amplitude >= 1.0 ||
      spec.phase_spread_sec < 0) {
    throw std::invalid_argument("generate_diurnal: bad spec");
  }
  std::vector<TraceEvent> events;
  for (double t = 0.0; t <= spec.duration_sec; t += spec.step_sec) {
    for (int d = 0; d < num_domains; ++d) {
      const double phase =
          num_domains > 1
              ? spec.phase_spread_sec * static_cast<double>(d) /
                    static_cast<double>(num_domains)
              : 0.0;
      const double mult =
          1.0 + spec.amplitude * std::sin(kTwoPi * (t + phase) / spec.period_sec);
      events.push_back({t, d, mult});
    }
  }
  return events;
}

std::vector<TraceEvent> generate_regime_shifts(const RegimeShiftSpec& spec,
                                               int num_domains) {
  if (num_domains < 1 || spec.duration_sec <= 0 || spec.mean_dwell_sec <= 0 ||
      spec.hot_multiplier <= 0) {
    throw std::invalid_argument("generate_regime_shifts: bad spec");
  }
  sim::RngStream rng(spec.seed);
  std::vector<TraceEvent> events;
  web::DomainId hot = static_cast<web::DomainId>(
      rng.uniform_int(0, static_cast<std::int64_t>(num_domains) - 1));
  events.push_back({0.0, hot, spec.hot_multiplier});
  for (double t = rng.exponential(spec.mean_dwell_sec); t < spec.duration_sec;
       t += rng.exponential(spec.mean_dwell_sec)) {
    events.push_back({t, hot, 1.0});  // previous hot spot cools...
    if (num_domains > 1) {
      // ...and the heat moves to a different domain.
      web::DomainId next = hot;
      while (next == hot) {
        next = static_cast<web::DomainId>(
            rng.uniform_int(0, static_cast<std::int64_t>(num_domains) - 1));
      }
      hot = next;
    }
    events.push_back({t, hot, spec.hot_multiplier});
  }
  return events;
}

}  // namespace adattl::workload
