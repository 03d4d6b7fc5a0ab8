#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "experiment/cli.h"

namespace adattl::experiment {

/// How a knob's textual value is parsed and serialized. The grammars are
/// those of sim/text.h, the same in every layer.
enum class ParamKind {
  kBool,        ///< bare flag, =true|1|false|0, or --no-X negation
  kInt,         ///< integer grammar, range-checked to 32 bits
  kUint,        ///< integer grammar over [0, 2^64 - 1] (seeds, capacities)
  kDouble,      ///< number grammar, finite values only
  kDoubleList,  ///< comma-separated finite numbers (relative capacities)
  kString,      ///< free-form or enumerated text (policy, estimator)
  kSpecList,    ///< repeatable colon-packed specs (shift, crash, ...)
};

/// Which part of an invocation a knob describes. Simulation and run knobs
/// accept environment overrides and appear in --dump-config / config JSON;
/// output knobs (paths, format switches) are CLI/scenario-only.
enum class ParamScope { kSim, kRun, kOutput };

/// Where a knob's resolved value came from. Layers apply in this order;
/// a later layer overwrites an earlier one (defaults < scenario < env <
/// CLI). kCode marks values set programmatically (benches, tests) when
/// provenance is inferred rather than recorded.
enum class ParamLayer { kDefault, kCode, kScenario, kEnv, kCli };

const char* param_layer_name(ParamLayer layer);

/// One knob: the single place its name, type, documentation, environment
/// binding, parser, serializer, and validation live. Every configuration
/// surface (CLI flags, ADATTL_* env, scenario files, --help, CONFIG.md,
/// --dump-config, runner JSON) is generated from this table.
struct ParamSpec {
  std::string name;   ///< canonical key: CLI flag without "--", scenario key
  ParamKind kind = ParamKind::kString;
  ParamScope scope = ParamScope::kSim;
  std::string group;  ///< help/doc grouping, in registration order
  std::string hint;   ///< value placeholder for help text, e.g. "SEC"
  std::string doc;    ///< one-line description
  std::string env;    ///< environment override variable ("" = none)
  bool repeatable = false;
  /// Included in --dump-config / config JSON. Off for knobs another knob
  /// already covers in resolved form (heterogeneity -> relative, faults ->
  /// expanded windows) and for all output knobs.
  bool in_dump = true;
  /// Included in the provenance JSON embedded in run manifests. Off for
  /// knobs that cannot change results — execution parallelism and output
  /// destinations — so report JSON stays bit-identical across --jobs.
  bool in_manifest = true;
  /// Parses `value` and assigns the target field(s); throws
  /// std::invalid_argument (without a source prefix — the pipeline adds
  /// "--flag:" / "ADATTL_X:" context).
  std::function<void(CliOptions&, const std::string&)> set;
  /// Canonical textual value of the knob's current state (scalar knobs).
  std::function<std::string(const CliOptions&)> get;
  /// One entry per accumulated element (repeatable knobs).
  std::function<std::vector<std::string>(const CliOptions&)> get_list;
  /// Range/consistency check run by validate(); throws with the same
  /// message from every entry point. Null = no per-knob constraint.
  std::function<void(const CliOptions&)> check;
};

/// Per-knob record of the layer that last wrote it and the raw value text
/// it received. Knobs still at their default carry no entry.
struct ParamProvenance {
  ParamLayer layer = ParamLayer::kDefault;
  std::string value;
};

using ProvenanceMap = std::map<std::string, ParamProvenance>;

/// A fully resolved invocation: the options plus where every knob came from.
struct ConfigResolution {
  CliOptions options;
  ProvenanceMap provenance;
};

/// The knob table and everything derived from it. One immutable process-
/// wide instance; adding a knob means adding one registration in
/// param_registry.cpp and nothing anywhere else.
class ParamRegistry {
 public:
  static const ParamRegistry& instance();

  const std::vector<ParamSpec>& specs() const { return specs_; }
  const ParamSpec* find(const std::string& name) const;

  /// Closest registered name by edit distance (including --no-X forms and
  /// "config"); empty string when nothing is plausibly close.
  std::string suggest(const std::string& name) const;

  /// The precedence pipeline: defaults, then every --config=FILE scenario
  /// (wherever it appears on the line), then ADATTL_* environment
  /// overrides, then the remaining CLI flags in order. Validates the
  /// result; throws std::invalid_argument naming the offending source.
  ConfigResolution resolve(const std::vector<std::string>& cli_args) const;

  /// Environment-free resolution: defaults plus the given "--key=value"
  /// flags at the CLI layer, validated exactly like a user invocation but
  /// with no ADATTL_* interference and no scenario files. This is the
  /// repro hook the property-test harness builds on: a generated config is
  /// a flag list, and dump_scenario() of the result is its repro scenario.
  ConfigResolution resolve_flags(const std::vector<std::string>& flags) const;

  /// Applies one "--key[=value]" argument at the given layer.
  void apply_arg(ConfigResolution& r, const std::string& arg, ParamLayer layer) const;

  /// Runs every spec's check plus the cross-knob constraints. The same
  /// validation SimulationConfig::validate() performs.
  void validate(const CliOptions& opt) const;

  /// Scenario-file text reproducing the fully resolved run: every dumped
  /// knob as `key = value` with its provenance layer as a trailing
  /// comment. Feeding it back through --config yields a bit-identical
  /// RunResult (in a clean environment).
  std::string dump_scenario(const ConfigResolution& r) const;

  /// Resolved configuration as a JSON object keyed by knob name.
  std::string config_json(const CliOptions& opt) const;

  /// Provenance as a JSON object: {"knob":{"layer":"cli","value":"..."}}.
  /// Knobs still at their default are omitted.
  std::string provenance_json(const ProvenanceMap& provenance) const;

  /// Provenance for options built programmatically (benches, tests):
  /// every knob whose serialized value differs from the default is
  /// attributed to the kCode layer.
  ProvenanceMap infer_provenance(const CliOptions& opt) const;

  /// Grouped --help text.
  std::string usage() const;

  /// docs/CONFIG.md: a markdown knob reference generated from the table.
  std::string params_markdown() const;

 private:
  ParamRegistry();
  void add(ParamSpec spec);

  std::vector<ParamSpec> specs_;
  std::map<std::string, std::size_t> index_;
};

/// Convenience wrapper over ParamRegistry::instance().resolve().
ConfigResolution resolve_config(const std::vector<std::string>& args);

}  // namespace adattl::experiment
