#include "experiment/cli.h"

#include <gtest/gtest.h>

namespace adattl::experiment {
namespace {

TEST(Cli, EmptyArgsGiveValidatedDefaults) {
  const CliOptions opt = parse_cli({});
  EXPECT_EQ(opt.config.policy, "RR");
  EXPECT_EQ(opt.replications, 1);
  EXPECT_FALSE(opt.csv);
  EXPECT_NO_THROW(opt.config.validate());
}

TEST(Cli, ParsesPolicyAndSite) {
  const CliOptions opt = parse_cli({"--policy=DRR2-TTL/S_K", "--heterogeneity=50"});
  EXPECT_EQ(opt.config.policy, "DRR2-TTL/S_K");
  EXPECT_NEAR(opt.config.cluster.heterogeneity_percent(), 50.0, 1e-9);
}

TEST(Cli, ParsesCustomRelativeCapacities) {
  const CliOptions opt =
      parse_cli({"--relative=1,0.9,0.3", "--total-capacity=300", "--clients=200"});
  EXPECT_EQ(opt.config.cluster.relative, (std::vector<double>{1.0, 0.9, 0.3}));
  EXPECT_DOUBLE_EQ(opt.config.cluster.total_capacity_hits_per_sec, 300.0);
  EXPECT_EQ(opt.config.total_clients, 200);
}

TEST(Cli, ParsesWorkloadFlags) {
  const CliOptions opt = parse_cli(
      {"--domains=40", "--think=12.5", "--zipf-theta=0.8", "--uniform", "--error=25"});
  EXPECT_EQ(opt.config.num_domains, 40);
  EXPECT_DOUBLE_EQ(opt.config.mean_think_sec, 12.5);
  EXPECT_DOUBLE_EQ(opt.config.zipf_theta, 0.8);
  EXPECT_TRUE(opt.config.uniform_clients);
  EXPECT_DOUBLE_EQ(opt.config.rate_perturbation_percent, 25.0);
}

TEST(Cli, ParsesAlgorithmAndEstimationFlags) {
  const CliOptions opt = parse_cli({"--ttl=120", "--no-calibration", "--alarm-threshold=0.8",
                                    "--no-alarm", "--measured", "--estimator=window",
                                    "--cold-start", "--client-cache", "--min-ttl=90"});
  EXPECT_DOUBLE_EQ(opt.config.reference_ttl_sec, 120.0);
  EXPECT_FALSE(opt.config.calibrate_ttl);
  EXPECT_DOUBLE_EQ(opt.config.alarm_threshold, 0.8);
  EXPECT_FALSE(opt.config.alarm_enabled);
  EXPECT_FALSE(opt.config.oracle_weights);
  EXPECT_EQ(opt.config.estimator_kind, EstimatorKind::kSlidingWindow);
  EXPECT_TRUE(opt.config.estimator_cold_start);
  EXPECT_TRUE(opt.config.client_cache_enabled);
  EXPECT_DOUBLE_EQ(opt.config.ns_min_ttl_sec, 90.0);
}

TEST(Cli, ParsesJsonFlag) {
  EXPECT_TRUE(parse_cli({"--json"}).json);
  EXPECT_FALSE(parse_cli({}).json);
}

TEST(Cli, ParsesDecisionsPath) {
  EXPECT_EQ(parse_cli({"--decisions=dns.csv"}).decisions_path, "dns.csv");
  EXPECT_THROW(parse_cli({"--decisions"}), std::invalid_argument);
}

TEST(Cli, ParsesNsPerDomain) {
  EXPECT_EQ(parse_cli({"--ns-per-domain=4"}).config.ns_per_domain, 4);
  EXPECT_THROW(parse_cli({"--ns-per-domain=0"}), std::invalid_argument);
}

TEST(Cli, ParsesRunAndOutputFlags) {
  const CliOptions opt = parse_cli(
      {"--duration=600", "--warmup=60", "--seed=17", "--replications=4", "--csv", "--cdf"});
  EXPECT_DOUBLE_EQ(opt.config.duration_sec, 600.0);
  EXPECT_DOUBLE_EQ(opt.config.warmup_sec, 60.0);
  EXPECT_EQ(opt.config.seed, 17u);
  EXPECT_EQ(opt.replications, 4);
  EXPECT_TRUE(opt.csv);
  EXPECT_TRUE(opt.show_cdf);
}

TEST(Cli, ParsesTraceAndShifts) {
  const CliOptions opt =
      parse_cli({"--trace=out.csv", "--shift=600:3:5", "--shift=1200:3:0.2"});
  EXPECT_EQ(opt.trace_path, "out.csv");
  ASSERT_EQ(opt.config.rate_shifts.size(), 2u);
  EXPECT_DOUBLE_EQ(opt.config.rate_shifts[0].at_sec, 600.0);
  EXPECT_EQ(opt.config.rate_shifts[0].domain, 3);
  EXPECT_DOUBLE_EQ(opt.config.rate_shifts[0].rate_factor, 5.0);
  EXPECT_DOUBLE_EQ(opt.config.rate_shifts[1].rate_factor, 0.2);
}

TEST(Cli, RejectsMalformedShifts) {
  EXPECT_THROW(parse_cli({"--shift=600"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--shift=600:3"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--shift=600:x:5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--shift=600:99:5"}), std::invalid_argument);  // unknown domain
  EXPECT_THROW(parse_cli({"--shift=600:3:0"}), std::invalid_argument);
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_THROW(parse_cli({"--bogus=1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"positional"}), std::invalid_argument);
}

TEST(Cli, RejectsMissingOrMalformedValues) {
  EXPECT_THROW(parse_cli({"--policy"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--policy="}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--domains=abc"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--domains=3.5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--think=12x"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--relative=1,,0.5"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--estimator=magic"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--replications=0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--heterogeneity=42"}), std::invalid_argument);
}

TEST(Cli, ResultIsValidatedAsAWhole) {
  // Individually parseable but semantically invalid: caught by validate().
  EXPECT_THROW(parse_cli({"--relative=0.5,1"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--think=0"}), std::invalid_argument);
  // A zero-record ring is rejected whether or not anything traces.
  EXPECT_THROW(parse_cli({"--trace-capacity=0"}), std::invalid_argument);
  EXPECT_THROW(parse_cli({"--trace-capacity=0", "--trace=t.csv"}), std::invalid_argument);
}

TEST(Cli, ShardedRunsResolveTraceAndDecisionFiles) {
  // Every layout traces through its slices' rings, so the sharded inputs
  // resolve as the serial ones do, and so does a traced sharded config.
  for (const char* file : {"--trace=t.csv", "--decisions=d.csv", "--chrome-trace=c.json"}) {
    EXPECT_NO_THROW(parse_cli({"--shard-domains", file})) << file;
  }
  EXPECT_NO_THROW(parse_cli({"--trace=t.csv", "--decisions=d.csv", "--chrome-trace=c.json"}));
  SimulationConfig traced = parse_cli({"--shard-domains"}).config;
  traced.trace_enabled = true;
  EXPECT_NO_THROW(traced.validate());
  // Tracing has no knob: run_scenario turns it on for its own sweep.
  EXPECT_FALSE(parse_cli({"--chrome-trace=c.json"}).config.trace_enabled);
  // Redirection stays the one sharded rejection.
  EXPECT_THROW(parse_cli({"--shard-domains", "--redirect"}), std::invalid_argument);
}

TEST(Cli, UsageMentionsEveryFlagGroup) {
  const std::string u = cli_usage();
  for (const char* needle :
       {"--policy", "--heterogeneity", "--relative", "--domains", "--min-ttl", "--measured",
        "--duration", "--csv", "--error", "--client-cache"}) {
    EXPECT_NE(u.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace adattl::experiment
