#include "workload/trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/random.h"

namespace adattl::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

[[noreturn]] void bad_row(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("trace CSV line " + std::to_string(line_no) + ": " + why);
}

double parse_double(const std::string& field, std::size_t line_no, const char* what) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(field, &consumed);
  } catch (const std::exception&) {
    bad_row(line_no, std::string("bad ") + what + " '" + field + "'");
  }
  if (consumed != field.size()) {
    bad_row(line_no, std::string("trailing junk in ") + what + " '" + field + "'");
  }
  return value;
}

}  // namespace

std::vector<TraceEvent> parse_trace_csv(const std::string& text) {
  std::vector<TraceEvent> events;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  bool seen_data = false;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip a trailing `# comment` and surrounding whitespace.
    const auto hash = raw.find('#');
    const std::string line = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;

    const auto c1 = line.find(',');
    const auto c2 = c1 == std::string::npos ? std::string::npos : line.find(',', c1 + 1);
    if (c2 == std::string::npos) bad_row(line_no, "expected t_sec,domain,rate_multiplier");
    const std::string f0 = trim(line.substr(0, c1));
    const std::string f1 = trim(line.substr(c1 + 1, c2 - c1 - 1));
    const std::string f2 = trim(line.substr(c2 + 1));
    if (line.find(',', c2 + 1) != std::string::npos) bad_row(line_no, "too many fields");

    // One header row is tolerated before any data.
    if (!seen_data && f0 == "t_sec") continue;

    TraceEvent ev;
    ev.at_sec = parse_double(f0, line_no, "t_sec");
    const double domain = parse_double(f1, line_no, "domain");
    if (domain != std::floor(domain) || domain < 0) {
      bad_row(line_no, "domain must be a non-negative integer");
    }
    ev.domain = static_cast<web::DomainId>(domain);
    ev.rate_multiplier = parse_double(f2, line_no, "rate_multiplier");
    events.push_back(ev);
    seen_data = true;
  }
  return events;
}

std::vector<TraceEvent> load_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("trace file '" + path + "': cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_trace_csv(buf.str());
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
