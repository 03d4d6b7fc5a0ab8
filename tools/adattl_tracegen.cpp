// adattl_tracegen — emits reproducible arrival-rate traces in the
// `t_sec,domain,rate_multiplier` CSV schema that `--workload-trace=FILE`
// replays. Three generator families (workload/trace.h):
//
//   adattl_tracegen flash  [--domain=D] [--start=SEC] [--ramp=SEC]
//                          [--hold=SEC] [--decay=SEC] [--peak=X] [--step=SEC]
//   adattl_tracegen diurnal --domains=K [--duration=SEC] [--period=SEC]
//                          [--amplitude=A] [--spread=SEC] [--step=SEC]
//   adattl_tracegen regime  --domains=K [--duration=SEC] [--dwell=SEC]
//                          [--hot=X] [--seed=N]
//
// The trace is written to stdout (or --out=FILE). Every knob has a
// deterministic default, so `adattl_tracegen flash > flash.csv` is already
// a committable artifact.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "flag_number.h"
#include "workload/trace.h"

namespace {

using adattl::workload::DiurnalSpec;
using adattl::workload::FlashCrowdSpec;
using adattl::workload::RegimeShiftSpec;
using adattl::workload::TraceEvent;

[[noreturn]] void usage(int code) {
  std::fprintf(stderr, "%s",
               "usage: adattl_tracegen <flash|diurnal|regime> [--knob=value ...]\n"
               "\n"
               "  flash    one-domain flash crowd (ramp / hold / decay)\n"
               "           --domain=D --start=SEC --ramp=SEC --hold=SEC --decay=SEC\n"
               "           --peak=X --step=SEC\n"
               "  diurnal  per-domain sinusoids\n"
               "           --domains=K --duration=SEC --period=SEC --amplitude=A\n"
               "           --spread=SEC --step=SEC\n"
               "  regime   regime-shifting hot spot (seeded, deterministic)\n"
               "           --domains=K --duration=SEC --dwell=SEC --hot=X --seed=N\n"
               "\n"
               "common: --out=FILE (default stdout)\n");
  std::exit(code);
}

constexpr const char* kTool = "adattl_tracegen";

double num(const std::string& key, const std::string& value) {
  return adattl::tools::flag_number(kTool, "--" + key, value);
}

long long whole(const std::string& key, const std::string& value,
                long long max = std::numeric_limits<int>::max()) {
  return adattl::tools::flag_integer(kTool, "--" + key, value, max);
}

struct Args {
  std::string out_path;
  std::vector<std::pair<std::string, std::string>> knobs;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg.rfind("--", 0) != 0) usage(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(arg + ": requires a value (" + arg + "=...)");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "out") {
      args.out_path = value;
    } else {
      args.knobs.emplace_back(key, value);
    }
  }
  return args;
}

std::vector<TraceEvent> run_flash(const Args& args) {
  FlashCrowdSpec spec;
  for (const auto& [key, value] : args.knobs) {
    if (key == "domain") spec.domain = static_cast<int>(whole(key, value));
    else if (key == "start") spec.start_sec = num(key, value);
    else if (key == "ramp") spec.ramp_sec = num(key, value);
    else if (key == "hold") spec.hold_sec = num(key, value);
    else if (key == "decay") spec.decay_sec = num(key, value);
    else if (key == "peak") spec.peak_multiplier = num(key, value);
    else if (key == "step") spec.step_sec = num(key, value);
    else throw std::invalid_argument("flash: unknown knob --" + key);
  }
  return generate_flash_crowd(spec);
}

std::vector<TraceEvent> run_diurnal(const Args& args) {
  DiurnalSpec spec;
  int domains = 0;
  for (const auto& [key, value] : args.knobs) {
    if (key == "domains") domains = static_cast<int>(whole(key, value));
    else if (key == "duration") spec.duration_sec = num(key, value);
    else if (key == "period") spec.period_sec = num(key, value);
    else if (key == "amplitude") spec.amplitude = num(key, value);
    else if (key == "spread") spec.phase_spread_sec = num(key, value);
    else if (key == "step") spec.step_sec = num(key, value);
    else throw std::invalid_argument("diurnal: unknown knob --" + key);
  }
  if (domains < 1) throw std::invalid_argument("diurnal: needs --domains=K (>= 1)");
  return generate_diurnal(spec, domains);
}

std::vector<TraceEvent> run_regime(const Args& args) {
  RegimeShiftSpec spec;
  int domains = 0;
  for (const auto& [key, value] : args.knobs) {
    if (key == "domains") domains = static_cast<int>(whole(key, value));
    else if (key == "duration") spec.duration_sec = num(key, value);
    else if (key == "dwell") spec.mean_dwell_sec = num(key, value);
    else if (key == "hot") spec.hot_multiplier = num(key, value);
    else if (key == "seed") spec.seed = static_cast<std::uint64_t>(whole(key, value, 1LL << 53));
    else throw std::invalid_argument("regime: unknown knob --" + key);
  }
  if (domains < 1) throw std::invalid_argument("regime: needs --domains=K (>= 1)");
  return generate_regime_shifts(spec, domains);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string mode = argv[1];
  if (mode == "--help" || mode == "-h") usage(0);
  try {
    const Args args = parse_args(argc, argv);
    std::vector<TraceEvent> events;
    if (mode == "flash") {
      events = run_flash(args);
    } else if (mode == "diurnal") {
      events = run_diurnal(args);
    } else if (mode == "regime") {
      events = run_regime(args);
    } else {
      std::fprintf(stderr, "adattl_tracegen: unknown mode '%s'\n", mode.c_str());
      usage(2);
    }
    const std::string csv = adattl::workload::trace_to_csv(events);
    if (args.out_path.empty()) {
      std::fwrite(csv.data(), 1, csv.size(), stdout);
    } else {
      std::ofstream out(args.out_path, std::ios::binary);
      if (!out) throw std::invalid_argument("cannot open '" + args.out_path + "'");
      out << csv;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adattl_tracegen: %s\n", e.what());
    return 1;
  }
  return 0;
}
