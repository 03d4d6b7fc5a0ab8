#include "fault/fault_schedule.h"

#include <climits>
#include <cmath>
#include <stdexcept>

#include "sim/text.h"

namespace adattl::fault {
namespace {

/// A window start, duration or factor: the number grammar, infinities and
/// NaN included (validate() judges them).
double parse_number(const std::string& what, const std::string& value) {
  const std::optional<double> out = text::parse_number(value);
  if (!out) throw std::invalid_argument(what + ": expected a number, got '" + value + "'");
  return *out;
}

int parse_int(const std::string& what, const std::string& value) {
  const std::optional<std::int64_t> out = text::parse_integer(value, INT_MIN, INT_MAX);
  if (!out) throw std::invalid_argument(what + ": expected a 32-bit integer, got '" + value + "'");
  return static_cast<int>(*out);
}

[[noreturn]] void bad_shape(const std::string& what, const char* shape,
                            const std::string& spec) {
  throw std::invalid_argument(what + ": expected " + shape + ", got '" + spec + "'");
}

// The checks are negated so NaN fails them: the number grammar reads "nan"
// and "inf", and a NaN time would reach Simulator::at. An infinite start or
// duration is legal (never, or for good); an infinite factor is not.
void check_start(const std::string& what, double start_sec) {
  if (!(start_sec >= 0.0)) throw std::invalid_argument(what + ": start must be >= 0");
}

void check_window(const std::string& what, double start_sec, double duration_sec) {
  check_start(what, start_sec);
  if (!(duration_sec > 0.0)) throw std::invalid_argument(what + ": duration must be > 0");
}

void check_factor(const std::string& what, double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument(what + " must be finite and > 0");
  }
}

void check_server(const std::string& what, int server, int num_servers) {
  if (server < 0 || server >= num_servers) {
    throw std::invalid_argument(what + ": server " + std::to_string(server) +
                                " outside [0, " + std::to_string(num_servers) + ")");
  }
}

}  // namespace

CrashWindow FaultSchedule::parse_crash(const std::string& spec) {
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 3) bad_shape("crash", "START:DURATION:SERVER", spec);
  CrashWindow w;
  w.start_sec = parse_number("crash start", f[0]);
  w.duration_sec = parse_number("crash duration", f[1]);
  w.server = parse_int("crash server", f[2]);
  return w;
}

DegradeWindow FaultSchedule::parse_degrade(const std::string& spec) {
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 4) bad_shape("degrade", "START:DURATION:SERVER:FACTOR", spec);
  DegradeWindow w;
  w.start_sec = parse_number("degrade start", f[0]);
  w.duration_sec = parse_number("degrade duration", f[1]);
  w.server = parse_int("degrade server", f[2]);
  w.factor = parse_number("degrade factor", f[3]);
  return w;
}

PauseWindow FaultSchedule::parse_pause(const std::string& spec) {
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 3) bad_shape("pause", "START:DURATION:SERVER", spec);
  PauseWindow w;
  w.start_sec = parse_number("pause start", f[0]);
  w.duration_sec = parse_number("pause duration", f[1]);
  w.server = parse_int("pause server", f[2]);
  return w;
}

DnsOutageWindow FaultSchedule::parse_dns_outage(const std::string& spec) {
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 2) bad_shape("dns-outage", "START:DURATION", spec);
  DnsOutageWindow w;
  w.start_sec = parse_number("dns-outage start", f[0]);
  w.duration_sec = parse_number("dns-outage duration", f[1]);
  return w;
}

ScaleEvent FaultSchedule::parse_scale(const std::string& spec, bool up) {
  const std::string what = up ? "scale-up" : "scale-down";
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 2) bad_shape(what, "START:SERVER", spec);
  ScaleEvent e;
  e.start_sec = parse_number(what + " start", f[0]);
  e.server = parse_int(what + " server", f[1]);
  e.up = up;
  return e;
}

ResizeEvent FaultSchedule::parse_resize(const std::string& spec) {
  const std::vector<std::string> f = text::split(spec, ':');
  if (f.size() != 3) bad_shape("resize", "START:SERVER:FACTOR", spec);
  ResizeEvent e;
  e.start_sec = parse_number("resize start", f[0]);
  e.server = parse_int("resize server", f[1]);
  e.factor = parse_number("resize factor", f[2]);
  return e;
}

bool FaultSchedule::apply_directive(const std::string& key, const std::string& value) {
  if (key == "crash") {
    crashes.push_back(parse_crash(value));
  } else if (key == "degrade") {
    degradations.push_back(parse_degrade(value));
  } else if (key == "pause") {
    pauses.push_back(parse_pause(value));
  } else if (key == "dns-outage") {
    dns_outages.push_back(parse_dns_outage(value));
  } else if (key == "scale-up") {
    scale_events.push_back(parse_scale(value, true));
  } else if (key == "scale-down") {
    scale_events.push_back(parse_scale(value, false));
  } else if (key == "resize") {
    resizes.push_back(parse_resize(value));
  } else {
    return false;
  }
  return true;
}

void FaultSchedule::merge(const FaultSchedule& other) {
  crashes.insert(crashes.end(), other.crashes.begin(), other.crashes.end());
  degradations.insert(degradations.end(), other.degradations.begin(),
                      other.degradations.end());
  pauses.insert(pauses.end(), other.pauses.begin(), other.pauses.end());
  dns_outages.insert(dns_outages.end(), other.dns_outages.begin(), other.dns_outages.end());
  scale_events.insert(scale_events.end(), other.scale_events.begin(), other.scale_events.end());
  resizes.insert(resizes.end(), other.resizes.begin(), other.resizes.end());
}

void FaultSchedule::validate(int num_servers) const {
  for (const CrashWindow& w : crashes) {
    check_window("fault crash", w.start_sec, w.duration_sec);
    check_server("fault crash", w.server, num_servers);
  }
  for (const DegradeWindow& w : degradations) {
    check_window("fault degrade", w.start_sec, w.duration_sec);
    check_server("fault degrade", w.server, num_servers);
    check_factor("fault degrade: capacity factor", w.factor);
  }
  for (const PauseWindow& w : pauses) {
    check_window("fault pause", w.start_sec, w.duration_sec);
    check_server("fault pause", w.server, num_servers);
  }
  for (const DnsOutageWindow& w : dns_outages) {
    check_window("fault dns-outage", w.start_sec, w.duration_sec);
  }
  for (const ScaleEvent& e : scale_events) {
    const std::string what = e.up ? "fault scale-up" : "fault scale-down";
    check_start(what, e.start_sec);
    check_server(what, e.server, num_servers);
  }
  for (const ResizeEvent& e : resizes) {
    check_start("fault resize", e.start_sec);
    check_server("fault resize", e.server, num_servers);
    check_factor("fault resize: factor", e.factor);
  }
}

FaultSchedule parse_fault_text(const std::string& text) {
  FaultSchedule out;
  for (const text::KeyValue& kv : text::key_values(text, "fault file")) {
    if (!out.apply_directive(kv.key, kv.value)) {
      throw std::invalid_argument("fault file line " + std::to_string(kv.line) +
                                  ": unknown directive '" + kv.key +
                                  "' (crash/degrade/pause/dns-outage/scale-up/scale-down/"
                                  "resize)");
    }
  }
  return out;
}

FaultSchedule load_fault_file(const std::string& path) {
  return parse_fault_text(text::read_file(path, "fault file"));
}

}  // namespace adattl::fault
