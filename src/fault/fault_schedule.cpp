#include "fault/fault_schedule.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace adattl::fault {
namespace {

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

/// Same comment rule as scenario files: a '#' starts a comment only at the
/// start of the line or after whitespace, so embedded '#' in values is kept.
std::size_t comment_start(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' && (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) return i;
  }
  return std::string::npos;
}

double parse_number(const std::string& what, const std::string& value) {
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": expected a number, got '" + value + "'");
  }
  if (pos != value.size()) {
    throw std::invalid_argument(what + ": trailing junk in '" + value + "'");
  }
  return out;
}

int parse_int(const std::string& what, const std::string& value) {
  const double d = parse_number(what, value);
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d) {
    throw std::invalid_argument(what + ": expected an integer, got '" + value + "'");
  }
  return i;
}

/// Splits "a:b:c" into exactly `n` fields; throws naming `what` otherwise.
std::vector<std::string> split_fields(const std::string& what, const std::string& spec,
                                      std::size_t n) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t colon = spec.find(':', start);
    fields.push_back(
        spec.substr(start, colon == std::string::npos ? std::string::npos : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.size() != n) {
    throw std::invalid_argument(what + ": expected " + std::to_string(n) +
                                " ':'-separated fields, got '" + spec + "'");
  }
  return fields;
}

// The checks are negated so NaN fails them: std::stod accepts "nan" and
// "inf", and a NaN time would reach Simulator::at. An infinite start or
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
  const std::vector<std::string> f = split_fields("crash", spec, 3);
  CrashWindow w;
  w.start_sec = parse_number("crash start", f[0]);
  w.duration_sec = parse_number("crash duration", f[1]);
  w.server = parse_int("crash server", f[2]);
  return w;
}

DegradeWindow FaultSchedule::parse_degrade(const std::string& spec) {
  const std::vector<std::string> f = split_fields("degrade", spec, 4);
  DegradeWindow w;
  w.start_sec = parse_number("degrade start", f[0]);
  w.duration_sec = parse_number("degrade duration", f[1]);
  w.server = parse_int("degrade server", f[2]);
  w.factor = parse_number("degrade factor", f[3]);
  return w;
}

PauseWindow FaultSchedule::parse_pause(const std::string& spec) {
  const std::vector<std::string> f = split_fields("pause", spec, 3);
  PauseWindow w;
  w.start_sec = parse_number("pause start", f[0]);
  w.duration_sec = parse_number("pause duration", f[1]);
  w.server = parse_int("pause server", f[2]);
  return w;
}

DnsOutageWindow FaultSchedule::parse_dns_outage(const std::string& spec) {
  const std::vector<std::string> f = split_fields("dns-outage", spec, 2);
  DnsOutageWindow w;
  w.start_sec = parse_number("dns-outage start", f[0]);
  w.duration_sec = parse_number("dns-outage duration", f[1]);
  return w;
}

ScaleEvent FaultSchedule::parse_scale(const std::string& spec, bool up) {
  const std::string what = up ? "scale-up" : "scale-down";
  const std::vector<std::string> f = split_fields(what, spec, 2);
  ScaleEvent e;
  e.start_sec = parse_number(what + " start", f[0]);
  e.server = parse_int(what + " server", f[1]);
  e.up = up;
  return e;
}

ResizeEvent FaultSchedule::parse_resize(const std::string& spec) {
  const std::vector<std::string> f = split_fields("resize", spec, 3);
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
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line =
        text.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = (eol == std::string::npos) ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::size_t hash = comment_start(line);
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault file line " + std::to_string(line_no) +
                                  ": expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw std::invalid_argument("fault file line " + std::to_string(line_no) +
                                  ": empty key or value");
    }
    if (!out.apply_directive(key, value)) {
      throw std::invalid_argument("fault file line " + std::to_string(line_no) +
                                  ": unknown directive '" + key +
                                  "' (crash/degrade/pause/dns-outage/scale-up/scale-down/"
                                  "resize)");
    }
  }
  return out;
}

FaultSchedule load_fault_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open fault file '" + path + "'");
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_fault_text(text);
}

}  // namespace adattl::fault
