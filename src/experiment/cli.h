#pragma once

#include <string>
#include <vector>

#include "experiment/config.h"

namespace adattl::experiment {

/// What a command-line invocation asked for: the simulation itself plus
/// presentation options. Every field is bound to a ParamSpec in
/// param_registry.cpp — that table is the single source of truth for knob
/// names, parsing, documentation and validation.
struct CliOptions {
  SimulationConfig config;
  int replications = 1;
  /// Worker threads for the replication sweep; 0 = the ADATTL_JOBS
  /// environment default (hardware_concurrency if unset), 1 = serial.
  int jobs = 0;
  bool csv = false;       ///< emit CSV instead of aligned tables
  bool json = false;      ///< emit one JSON object with the headline metrics
  bool show_cdf = false;  ///< print the full max-utilization CDF curve
  // The three trace files (empty = not written) are exporters over the
  // first replication's RunResult::trace, which run_scenario's sweep
  // records, one ring per slice.
  /// Per-tick utilization time series (EventTracer::to_utilization_csv).
  std::string trace_path;
  /// Every authoritative DNS decision (EventTracer::to_decisions_csv).
  std::string decisions_path;
  /// The event timeline as Chrome trace_event JSON.
  std::string chrome_trace_path;
  /// Print the fully resolved run as a scenario file and exit (no run).
  bool dump_config = false;
  /// Print the generated knob reference (docs/CONFIG.md) and exit.
  bool dump_params_md = false;
};

/// Parses `--key[=value]` style arguments into CliOptions through the
/// parameter registry's precedence pipeline: defaults < scenario files
/// (`--config=FILE`, wherever it appears) < `ADATTL_*` environment
/// overrides < command-line flags in order. Boolean knobs accept `--X`,
/// `--X=true|false` and `--no-X`. Unknown flags or malformed values throw
/// std::invalid_argument naming the offending source, with a did-you-mean
/// suggestion for near-miss names. The full knob list lives in
/// param_registry.cpp and is rendered by cli_usage() / docs/CONFIG.md.
CliOptions parse_cli(const std::vector<std::string>& args);

/// Human-readable usage text for run_scenario-style binaries, generated
/// from the parameter registry.
std::string cli_usage();

}  // namespace adattl::experiment
