// The parameter-registry contract: every knob is declared exactly once and
// behaves identically through every entry point. Covers the ISSUE 5
// acceptance criteria — per-knob CLI/env/scenario round-trips, the
// defaults < scenario < env < CLI precedence with provenance, --dump-config
// re-parsing to a bit-identical RunResult, strict integer parsing above
// 2^53, boolean negation, and did-you-mean diagnostics.
#include "experiment/param_registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "experiment/runner.h"

namespace adattl::experiment {
namespace {

/// Removes every registry-bound ADATTL_* variable so ambient CI
/// environments cannot leak into resolution.
void clear_registry_env() {
  for (const ParamSpec& spec : ParamRegistry::instance().specs()) {
    if (!spec.env.empty()) ::unsetenv(spec.env.c_str());
  }
}

/// Canonical serialization of every non-output knob — equal fingerprints
/// mean equal resolved configurations.
std::string fingerprint(const CliOptions& opt) {
  std::string out;
  for (const ParamSpec& spec : ParamRegistry::instance().specs()) {
    if (spec.scope == ParamScope::kOutput) continue;
    out += spec.name + "=";
    if (spec.repeatable) {
      for (const std::string& v : spec.get_list(opt)) out += v + ";";
    } else {
      out += spec.get(opt);
    }
    out += "\n";
  }
  return out;
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

void expect_same_run(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.max_util_cdf.counts(), b.max_util_cdf.counts());
  EXPECT_EQ(a.prob_below_090, b.prob_below_090);
  EXPECT_EQ(a.prob_below_098, b.prob_below_098);
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);
  EXPECT_EQ(a.max_util_ci_relative, b.max_util_ci_relative);
  EXPECT_EQ(a.mean_server_util, b.mean_server_util);
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.client_cache_hits, b.client_cache_hits);
  EXPECT_EQ(a.address_request_rate, b.address_request_rate);
  EXPECT_EQ(a.dns_controlled_fraction, b.dns_controlled_fraction);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.per_server_response_sec, b.per_server_response_sec);
  EXPECT_EQ(a.response_p50_sec, b.response_p50_sec);
  EXPECT_EQ(a.response_p95_sec, b.response_p95_sec);
  EXPECT_EQ(a.response_p99_sec, b.response_p99_sec);
  EXPECT_EQ(a.mean_network_rtt_sec, b.mean_network_rtt_sec);
  EXPECT_EQ(a.redirected_pages, b.redirected_pages);
  EXPECT_EQ(a.redirected_fraction, b.redirected_fraction);
  EXPECT_EQ(a.failed_requests, b.failed_requests);
  EXPECT_EQ(a.lost_pages, b.lost_pages);
  EXPECT_EQ(a.lost_hits, b.lost_hits);
  EXPECT_EQ(a.dns_outage_sec, b.dns_outage_sec);
  EXPECT_EQ(a.unavailability_fraction, b.unavailability_fraction);
  // `profile` is wall-clock and intentionally excluded.
}

/// One representative non-default value per knob, chosen so each knob
/// resolved in isolation still validates.
const std::map<std::string, std::string>& sample_values() {
  static const std::map<std::string, std::string> samples = {
      {"domains", "12"},
      {"clients", "321"},
      {"think", "9.5"},
      {"zipf-theta", "0.7"},
      {"uniform", "true"},
      {"error", "25"},
      {"scale", "4"},
      {"shard-domains", "true"},
      {"shard-count", "3"},
      {"relative", "1,0.5"},
      {"total-capacity", "750"},
      {"policy", "DAL"},
      {"ttl", "120"},
      {"class-threshold", "0.08"},
      {"calibration", "false"},
      {"alarm", "false"},
      {"alarm-threshold", "0.8"},
      {"queue-alarm", "40"},
      {"monitor-interval", "4"},
      {"measured", "true"},
      {"estimator", "holt"},
      {"estimator-smoothing", "0.5"},
      {"estimator-windows", "5"},
      {"estimator-trend", "0.35"},
      {"estimator-ar-order", "4"},
      {"estimator-collect-ticks", "2"},
      {"cold-start", "true"},
      {"min-ttl", "60"},
      {"ns-per-domain", "2"},
      {"client-cache", "true"},
      {"geo-regions", "3"},
      {"geo-intra", "0.01"},
      {"geo-inter", "0.2"},
      {"redirect-wait", "1.5"},
      {"redirect-delay", "0.25"},
      {"redirect", "true"},
      {"shift", "600:3:5"},
      {"trace-point", "900:4:2.5"},
      {"crash", "900:60:2"},
      {"degrade", "900:60:1:0.5"},
      {"pause", "100:50:3"},
      {"dns-outage", "1000:120"},
      {"scale-up", "500:2"},
      {"scale-down", "700:3"},
      {"resize", "800:1:1.5"},
      {"autoscale", "true"},
      {"autoscale-high", "0.8"},
      {"autoscale-low", "0.25"},
      {"autoscale-ticks", "2"},
      {"autoscale-min", "2"},
      {"retry-delay", "2.5"},
      {"ns-retry-backoff", "0.5"},
      {"ns-retry-max-backoff", "32"},
      {"dnsd-port", "5399"},
      {"dnsd-shards", "4"},
      {"dnsd-batch", "8"},
      {"dnsd-ecs", "false"},
      {"metrics", "true"},
      {"trace-capacity", "1024"},
      {"duration", "1234"},
      {"warmup", "111"},
      {"seed", "9007199254740993"},  // 2^53 + 1: must survive exactly
      {"replications", "4"},
  };
  return samples;
}

TEST(ParamRegistry, EveryKnobRoundTripsThroughCliEnvAndScenario) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  for (const ParamSpec& spec : registry.specs()) {
    if (spec.scope == ParamScope::kOutput) continue;
    const auto sample = sample_values().find(spec.name);
    // Every dumped knob must have a sample so new knobs cannot silently
    // skip round-trip coverage. `heterogeneity`, `faults` and `jobs` are
    // covered by other tests (preset expansion, fault files, parallelism).
    if (sample == sample_values().end()) {
      EXPECT_FALSE(spec.in_dump) << "knob '" << spec.name << "' needs a sample value here";
      continue;
    }
    const std::string& value = sample->second;

    const CliOptions via_cli =
        registry.resolve({"--" + spec.name + "=" + value}).options;

    const std::string path = write_temp("adattl_registry_knob.scenario",
                                        spec.name + " = " + value + "\n");
    const CliOptions via_scenario = registry.resolve({"--config=" + path}).options;
    std::remove(path.c_str());

    EXPECT_EQ(fingerprint(via_cli), fingerprint(via_scenario))
        << "CLI vs scenario mismatch for knob '" << spec.name << "'";

    if (!spec.env.empty()) {
      ::setenv(spec.env.c_str(), value.c_str(), 1);
      const CliOptions via_env = registry.resolve({}).options;
      ::unsetenv(spec.env.c_str());
      EXPECT_EQ(fingerprint(via_cli), fingerprint(via_env))
          << "CLI vs env mismatch for knob '" << spec.name << "'";
    }

    // And the resolved value differs from the default, so the round trip
    // actually exercised the setter.
    EXPECT_NE(fingerprint(via_cli), fingerprint(CliOptions{}))
        << "sample for knob '" << spec.name << "' is the default";
  }
}

TEST(ParamRegistry, PrecedenceIsDefaultsScenarioEnvCli) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  const std::string path =
      write_temp("adattl_registry_prec.scenario", "ttl = 100\nseed = 1\nuniform = true\n");

  // Scenario only.
  ConfigResolution r = registry.resolve({"--config=" + path});
  EXPECT_EQ(r.options.config.reference_ttl_sec, 100.0);
  EXPECT_EQ(r.provenance.at("ttl").layer, ParamLayer::kScenario);
  EXPECT_EQ(r.provenance.at("seed").value, "1");
  EXPECT_EQ(r.provenance.count("domains"), 0u);  // defaults carry no entry

  // Env beats scenario.
  ::setenv("ADATTL_TTL", "200", 1);
  r = registry.resolve({"--config=" + path});
  EXPECT_EQ(r.options.config.reference_ttl_sec, 200.0);
  EXPECT_EQ(r.provenance.at("ttl").layer, ParamLayer::kEnv);
  EXPECT_EQ(r.options.config.seed, 1u);  // untouched knob keeps scenario value

  // CLI beats env; --config position on the line does not matter.
  r = registry.resolve({"--ttl=300", "--config=" + path});
  EXPECT_EQ(r.options.config.reference_ttl_sec, 300.0);
  EXPECT_EQ(r.provenance.at("ttl").layer, ParamLayer::kCli);
  EXPECT_EQ(r.provenance.at("ttl").value, "300");
  ::unsetenv("ADATTL_TTL");
  std::remove(path.c_str());
}

TEST(ParamRegistry, MalformedEnvValueNamesTheVariable) {
  clear_registry_env();
  ::setenv("ADATTL_DOMAINS", "twelve", 1);
  try {
    ParamRegistry::instance().resolve({});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ADATTL_DOMAINS"), std::string::npos) << e.what();
  }
  ::unsetenv("ADATTL_DOMAINS");
}

TEST(ParamRegistry, DumpConfigRoundTripsToBitIdenticalRunResult) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  const ConfigResolution first = registry.resolve(
      {"--policy=DRR2-TTL/S_K", "--domains=6", "--clients=60", "--duration=120",
       "--warmup=30", "--seed=7", "--measured", "--queue-alarm=30", "--crash=40:20:2",
       "--dns-outage=50:15", "--shift=45:2:3", "--no-calibration"});

  const std::string dump = registry.dump_scenario(first);
  const std::string path = write_temp("adattl_registry_dump.scenario", dump);
  const ConfigResolution second = registry.resolve({"--config=" + path});
  std::remove(path.c_str());

  EXPECT_EQ(fingerprint(first.options), fingerprint(second.options)) << dump;

  const ReplicatedResult a = run_replications(first.options.config, 1);
  const ReplicatedResult b = run_replications(second.options.config, 1);
  ASSERT_EQ(a.runs.size(), 1u);
  ASSERT_EQ(b.runs.size(), 1u);
  expect_same_run(a.runs.front(), b.runs.front());
}

TEST(ParamRegistry, DumpRecordsProvenanceLayers) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  ::setenv("ADATTL_WARMUP", "50", 1);
  const ConfigResolution r = registry.resolve({"--ttl=99"});
  ::unsetenv("ADATTL_WARMUP");
  const std::string dump = registry.dump_scenario(r);
  EXPECT_NE(dump.find("ttl = 99"), std::string::npos) << dump;
  EXPECT_NE(dump.find("# cli"), std::string::npos) << dump;
  EXPECT_NE(dump.find("warmup = 50"), std::string::npos) << dump;
  EXPECT_NE(dump.find("# env"), std::string::npos) << dump;
  EXPECT_NE(dump.find("# default"), std::string::npos) << dump;
}

TEST(ParamRegistry, CliPathMatchesProgrammaticConstructionBitIdentically) {
  // Golden: a config assembled through the registry runs bit-identically
  // to the same config assembled by direct field assignment (the pre-
  // registry "main" path every bench and scenario uses).
  clear_registry_env();
  SimulationConfig direct;
  direct.policy = "PRR2-TTL/K";
  direct.num_domains = 6;
  direct.total_clients = 60;
  direct.duration_sec = 120.0;
  direct.warmup_sec = 30.0;
  direct.seed = 4242;

  const CliOptions resolved = ParamRegistry::instance()
                                  .resolve({"--policy=PRR2-TTL/K", "--domains=6",
                                            "--clients=60", "--duration=120", "--warmup=30",
                                            "--seed=4242"})
                                  .options;

  const ReplicatedResult a = run_replications(direct, 1);
  const ReplicatedResult b = run_replications(resolved.config, 1);
  ASSERT_EQ(a.runs.size(), 1u);
  ASSERT_EQ(b.runs.size(), 1u);
  expect_same_run(a.runs.front(), b.runs.front());
}

TEST(ParamRegistry, ShippedScenarioResolvesAndDumpRoundTrips) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  // paper_default rather than chaos_recovery: the latter references its
  // fault file relative to the repo root, unreachable from the test cwd.
  const ConfigResolution first = registry.resolve(
      {std::string("--config=") + ADATTL_SOURCE_DIR + "/scenarios/paper_default.scenario"});
  EXPECT_EQ(first.options.config.policy, "DRR2-TTL/S_K");
  const std::string path =
      write_temp("adattl_registry_shipped.scenario", registry.dump_scenario(first));
  const ConfigResolution second = registry.resolve({"--config=" + path});
  std::remove(path.c_str());
  EXPECT_EQ(fingerprint(first.options), fingerprint(second.options));
}

TEST(ParamRegistry, IntegerKnobsKeepPrecisionAbove2Pow53) {
  clear_registry_env();
  // 2^53 + 1 is not representable as a double; the old stod-based parser
  // silently returned 9007199254740992.
  const CliOptions opt = parse_cli({"--seed=9007199254740993"});
  EXPECT_EQ(opt.config.seed, 9007199254740993ULL);
  EXPECT_THROW(parse_cli({"--domains=3.5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--domains=12abc"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--domains=99999999999999999999"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--seed=-1"}), std::invalid_argument);
}

TEST(ParamRegistry, BooleanFormsAndNegation) {
  clear_registry_env();
  EXPECT_TRUE(parse_cli({"--uniform"}).config.uniform_clients);
  EXPECT_TRUE(parse_cli({"--uniform=true"}).config.uniform_clients);
  EXPECT_TRUE(parse_cli({"--uniform=1"}).config.uniform_clients);
  EXPECT_FALSE(parse_cli({"--uniform=false"}).config.uniform_clients);
  EXPECT_FALSE(parse_cli({"--uniform=0"}).config.uniform_clients);
  EXPECT_FALSE(parse_cli({"--uniform", "--no-uniform"}).config.uniform_clients);
  // Legacy spellings stay valid through generic negation.
  EXPECT_FALSE(parse_cli({"--no-calibration"}).config.calibrate_ttl);
  EXPECT_FALSE(parse_cli({"--no-alarm"}).config.alarm_enabled);
  EXPECT_THROW(parse_cli({"--no-uniform=true"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--uniform=yes"}), std::invalid_argument);
  // --no-X only negates booleans.
  EXPECT_THROW(parse_cli({"--no-domains"}), std::invalid_argument);
}

TEST(ParamRegistry, UnknownNamesGetDidYouMeanSuggestions) {
  clear_registry_env();
  try {
    parse_cli({"--domans=3"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean '--domains'"), std::string::npos)
        << e.what();
  }
  try {
    parse_cli({"--no-alram"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--no-alarm"), std::string::npos) << e.what();
  }
  // Scenario keys go through the same lookup.
  const std::string path = write_temp("adattl_registry_typo.scenario", "polcy = RR\n");
  try {
    parse_cli({"--config=" + path});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--policy"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
  // Gibberish gets no suggestion, just the help pointer.
  try {
    parse_cli({"--zzqqxxy=1"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos) << e.what();
  }
}

TEST(ParamRegistry, ValidationIsIdenticalAcrossEntryPoints) {
  clear_registry_env();
  // Programmatic path.
  SimulationConfig cfg;
  cfg.reference_ttl_sec = -1;
  std::string programmatic;
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    programmatic = e.what();
  }
  // CLI path.
  std::string via_cli;
  try {
    parse_cli({"--ttl=-1"});
  } catch (const std::invalid_argument& e) {
    via_cli = e.what();
  }
  EXPECT_EQ(programmatic, "config: reference TTL must be > 0");
  EXPECT_EQ(via_cli, programmatic);

  // Policy names are validated by the registry at every entry point too.
  SimulationConfig bad_policy;
  bad_policy.policy = "NOT-A-POLICY";
  EXPECT_THROW(bad_policy.validate(), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--policy=NOT-A-POLICY"}), std::invalid_argument);
}

// γ is a share of the total load: above 1 it means nothing, and it used to
// pass the knob's check only to abort the run inside DomainModel.
TEST(ParamRegistry, ClassThresholdAboveOneIsRejected) {
  clear_registry_env();
  EXPECT_NO_THROW(parse_cli({"--class-threshold=1"}));
  try {
    parse_cli({"--class-threshold=1.5"});
    FAIL() << "accepted a class threshold above 1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--class-threshold"), std::string::npos) << e.what();
  }
}

// A round-robin tier count beyond int used to escape the policy check as
// std::out_of_range, printing "stoi" and naming neither knob nor token.
TEST(ParamRegistry, PolicyTierOverflowNamesTheKnobAndToken) {
  clear_registry_env();
  try {
    parse_cli({"--policy=RR99999999999"});
    FAIL() << "accepted an out-of-range tier count";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--policy"), std::string::npos) << what;
    EXPECT_NE(what.find("'RR99999999999'"), std::string::npos) << what;
  }
}

TEST(ParamRegistry, ConfigAndProvenanceJsonAreWellFormed) {
  clear_registry_env();
  const ParamRegistry& registry = ParamRegistry::instance();
  const ConfigResolution r = registry.resolve({"--seed=9007199254740993", "--measured"});
  const std::string config = registry.config_json(r.options);
  EXPECT_EQ(config.front(), '{');
  EXPECT_EQ(config.back(), '}');
  EXPECT_NE(config.find("\"seed\":9007199254740993"), std::string::npos) << config;
  EXPECT_NE(config.find("\"measured\":true"), std::string::npos) << config;
  EXPECT_NE(config.find("\"relative\":[1,1,1,0.8,0.8,0.8,0.8]"), std::string::npos) << config;

  const std::string prov = registry.provenance_json(r.provenance);
  EXPECT_NE(prov.find("\"seed\":{\"layer\":\"cli\",\"value\":\"9007199254740993\"}"),
            std::string::npos)
      << prov;
  EXPECT_EQ(prov.find("\"domains\""), std::string::npos) << prov;  // defaults omitted
}

TEST(ParamRegistry, HelpAndMarkdownCoverEveryKnob) {
  const ParamRegistry& registry = ParamRegistry::instance();
  const std::string usage = registry.usage();
  const std::string md = registry.params_markdown();
  for (const ParamSpec& spec : registry.specs()) {
    EXPECT_NE(usage.find("--" + spec.name), std::string::npos)
        << "knob '" << spec.name << "' missing from --help";
    EXPECT_NE(md.find("`" + spec.name + "`"), std::string::npos)
        << "knob '" << spec.name << "' missing from CONFIG.md";
  }
  EXPECT_NE(md.find("| `seed` |"), std::string::npos);
  EXPECT_NE(md.find("`ADATTL_SEED`"), std::string::npos);
}

// The int knob shows the preset it is, not 100 * (1 - 0.8) in floating point.
TEST(ParamRegistry, HeterogeneityDefaultIsTheIntegerPreset) {
  const ParamRegistry& registry = ParamRegistry::instance();
  const std::string md = registry.params_markdown();
  EXPECT_NE(md.find("| `heterogeneity` | int | `20` |"), std::string::npos) << md;
  const std::string usage = registry.usage();
  const std::size_t at = usage.find("--heterogeneity=");
  ASSERT_NE(at, std::string::npos);
  const std::string line = usage.substr(at, usage.find('\n', at) - at);
  EXPECT_NE(line.find("(default 20)"), std::string::npos) << line;
}

}  // namespace
}  // namespace adattl::experiment
