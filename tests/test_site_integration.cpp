// End-to-end integration tests: full Site runs at reduced (but meaningful)
// scale, checking the emergent properties the paper's methodology relies
// on — offered load, DNS control fraction, calibration parity, determinism
// — and the headline qualitative result (adaptive TTL beats RR under
// heterogeneity).
#include "experiment/site.h"

#include <gtest/gtest.h>

#include "experiment/runner.h"

namespace adattl::experiment {
namespace {

SimulationConfig short_config(const std::string& policy, int het = 35) {
  SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(het);
  cfg.policy = policy;
  cfg.warmup_sec = 300.0;
  cfg.duration_sec = 2400.0;
  cfg.seed = 99;
  return cfg;
}

// A one-domain site defaults γ to 1/K = 1, which DomainModel used to
// reject, so every policy aborted the run.
TEST(SiteIntegration, SingleDomainSiteRuns) {
  for (const char* policy : {"RR", "RR2", "RRK", "PRR2-TTL/2", "DRR2-TTL/S_K", "DAL"}) {
    SimulationConfig cfg = short_config(policy);
    cfg.num_domains = 1;
    cfg.oracle_weights = false;
    cfg.duration_sec = 600.0;
    Site site(cfg);
    EXPECT_GT(site.run().total_pages, 0u) << policy;
    EXPECT_EQ(site.domain_model().hot_count(), 0) << policy;
  }
}

TEST(SiteIntegration, AggregateUtilizationNearTwoThirds) {
  Site site(short_config("RR"));
  const RunResult r = site.run();
  EXPECT_NEAR(r.aggregate_utilization, 2.0 / 3.0, 0.06);
}

TEST(SiteIntegration, DnsControlsOnlyAFewPercentOfRequests) {
  Site site(short_config("DRR2-TTL/S_K"));
  const RunResult r = site.run();
  EXPECT_GT(r.dns_controlled_fraction, 0.0);
  EXPECT_LT(r.dns_controlled_fraction, 0.04);  // paper: "often below 4%"
}

TEST(SiteIntegration, HitsArriveAtPlausibleRate) {
  Site site(short_config("RR"));
  const RunResult r = site.run();
  // Offered ~329 hits/s over warmup+duration = 2700 s.
  const double rate = static_cast<double>(r.total_hits) / 2700.0;
  EXPECT_NEAR(rate, 329.0, 30.0);
}

TEST(SiteIntegration, SameSeedIsDeterministic) {
  Site a(short_config("PRR2-TTL/K"));
  Site b(short_config("PRR2-TTL/K"));
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.total_hits, rb.total_hits);
  EXPECT_EQ(ra.authoritative_queries, rb.authoritative_queries);
  EXPECT_DOUBLE_EQ(ra.prob_below_090, rb.prob_below_090);
  EXPECT_EQ(ra.events_dispatched, rb.events_dispatched);
}

TEST(SiteIntegration, DifferentSeedsDiffer) {
  SimulationConfig cfg = short_config("RR");
  Site a(cfg);
  cfg.seed = 100;
  Site b(cfg);
  EXPECT_NE(a.run().total_hits, b.run().total_hits);
}

TEST(SiteIntegration, AdaptiveTtlBeatsRoundRobinUnderHeterogeneity) {
  // The paper's headline claim, at 35% heterogeneity.
  const RunResult rr = Site(short_config("RR")).run();
  const RunResult adaptive = Site(short_config("DRR2-TTL/S_K")).run();
  EXPECT_GT(adaptive.prob_below_090, rr.prob_below_090 + 0.2);
  EXPECT_GT(adaptive.prob_below_098, rr.prob_below_098);
}

TEST(SiteIntegration, TwoTierBeatsPlainUnderSkew) {
  const RunResult prr = Site(short_config("PRR-TTL/K")).run();
  const RunResult prr2 = Site(short_config("PRR2-TTL/K")).run();
  // RR2-based strategies are "always better" (paper); allow slack for a
  // short run but require non-degradation.
  EXPECT_GE(prr2.prob_below_098, prr.prob_below_098 - 0.05);
}

TEST(SiteIntegration, CalibratedPoliciesHaveComparableAddressRates) {
  const RunResult constant = Site(short_config("PRR-TTL/1")).run();
  const RunResult per_domain = Site(short_config("PRR-TTL/K")).run();
  const RunResult det = Site(short_config("DRR2-TTL/S_K")).run();
  // §4.1 fairness: average address request rates must match (within noise;
  // lazy re-resolution — a domain re-queries only at its next session —
  // biases all policies equally).
  EXPECT_NEAR(per_domain.address_request_rate / constant.address_request_rate, 1.0, 0.25);
  EXPECT_NEAR(det.address_request_rate / constant.address_request_rate, 1.0, 0.25);
}

TEST(SiteIntegration, AlarmFeedbackFiresUnderOverload) {
  // RR at high heterogeneity routinely overloads the weak servers.
  Site site(short_config("RR", 65));
  const RunResult r = site.run();
  EXPECT_GT(r.alarm_signals, 0u);
}

TEST(SiteIntegration, UniformWorkloadIsTheIdealEnvelope) {
  SimulationConfig uniform = short_config("PRR-TTL/1");
  uniform.uniform_clients = true;
  const RunResult ideal = Site(uniform).run();
  const RunResult skewed = Site(short_config("PRR-TTL/1")).run();
  EXPECT_GT(ideal.prob_below_090, skewed.prob_below_090);
}

TEST(SiteIntegration, PerturbationDegradesTwoClassSchemes) {
  SimulationConfig cfg = short_config("PRR2-TTL/2", 50);
  const RunResult clean = Site(cfg).run();
  cfg.rate_perturbation_percent = 50.0;
  const RunResult noisy = Site(cfg).run();
  EXPECT_LE(noisy.prob_below_098, clean.prob_below_098 + 0.03);
}

TEST(SiteIntegration, NonCooperativeNsStillRuns) {
  SimulationConfig cfg = short_config("DRR2-TTL/S_K");
  cfg.ns_min_ttl_sec = 300.0;
  const RunResult r = Site(cfg).run();
  // With every NS enforcing 300 s the DNS answers fewer queries than the
  // calibrated K/240 rate would imply.
  EXPECT_LT(r.address_request_rate, 20.0 / 240.0);
  EXPECT_GT(r.total_hits, 0u);
}

TEST(SiteIntegration, MeasuredEstimatorTracksOracleClosely) {
  SimulationConfig oracle_cfg = short_config("PRR2-TTL/K");
  SimulationConfig measured_cfg = oracle_cfg;
  measured_cfg.oracle_weights = false;
  const RunResult oracle = Site(oracle_cfg).run();
  const RunResult measured = Site(measured_cfg).run();
  EXPECT_NEAR(measured.prob_below_098, oracle.prob_below_098, 0.12);
}

TEST(SiteIntegration, ColdStartEstimatorConverges) {
  SimulationConfig cfg = short_config("PRR2-TTL/K");
  cfg.oracle_weights = false;
  cfg.estimator_cold_start = true;
  Site site(cfg);
  const RunResult r = site.run();
  // After the run the estimator's view must rank domain 0 hottest.
  EXPECT_TRUE(site.domain_model().is_hot(0));
  EXPECT_GT(site.domain_model().weight(0), site.domain_model().weight(10));
  EXPECT_GT(r.total_hits, 0u);
}

TEST(SiteIntegration, MoreNameServersPerDomainRaiseDnsControl) {
  SimulationConfig cfg = short_config("RR");
  const RunResult one = Site(cfg).run();
  cfg.ns_per_domain = 4;
  const RunResult four = Site(cfg).run();
  // Four independent caches per domain re-resolve ~4x as often.
  EXPECT_GT(four.authoritative_queries, 2 * one.authoritative_queries);
  EXPECT_GT(four.dns_controlled_fraction, one.dns_controlled_fraction);
  // Load itself is unchanged.
  EXPECT_NEAR(four.aggregate_utilization, one.aggregate_utilization, 0.05);
}

TEST(SiteIntegration, ResponsePercentilesAreOrdered) {
  const RunResult r = Site(short_config("PRR2-TTL/K")).run();
  EXPECT_GT(r.response_p50_sec, 0.0);
  EXPECT_LE(r.response_p50_sec, r.response_p95_sec);
  EXPECT_LE(r.response_p95_sec, r.response_p99_sec);
  // Median page (10 hits at ~70 hits/s) takes ~0.15 s when unloaded.
  EXPECT_LT(r.response_p50_sec, 1.0);
}

TEST(SiteIntegration, SiteIsSingleUse) {
  Site site(short_config("RR"));
  site.run();
  EXPECT_THROW(site.run(), std::logic_error);
}

TEST(SiteIntegration, NameServerLookupRejectsUnknownReplicaOrDomain) {
  // Replica ns_per_domain of domain 0 would index domain 1's first NS.
  const SimulationConfig cfg = short_config("RR");
  Site site(cfg);
  EXPECT_EQ(site.name_server(1, cfg.ns_per_domain - 1).domain(), 1);
  EXPECT_THROW(site.name_server(0, cfg.ns_per_domain), std::out_of_range);
  EXPECT_THROW(site.name_server(0, -1), std::out_of_range);
  EXPECT_THROW(site.name_server(cfg.num_domains, 0), std::out_of_range);
}

TEST(RunnerTest, ReplicationsProduceDistinctRunsAndCis) {
  SimulationConfig cfg = short_config("RR");
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 800.0;
  const ReplicatedResult rep = run_replications(cfg, 3);
  ASSERT_EQ(rep.runs.size(), 3u);
  EXPECT_NE(rep.runs[0].total_hits, rep.runs[1].total_hits);
  const sim::MeanCi p = rep.prob_below(0.9);
  EXPECT_GE(p.mean, 0.0);
  EXPECT_LE(p.mean, 1.0);
  EXPECT_GE(p.halfwidth, 0.0);
}

TEST(RunnerTest, MeanCdfCurveIsMonotone) {
  SimulationConfig cfg = short_config("PRR-TTL/1");
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 800.0;
  const ReplicatedResult rep = run_replications(cfg, 2);
  const auto curve = rep.mean_cdf_curve(20);
  ASSERT_EQ(curve.size(), 21u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().first, 1.0);
}

TEST(RunnerTest, JsonSerializationIsWellFormedAndComplete) {
  SimulationConfig cfg = short_config("DRR2-TTL/S_K");
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 800.0;
  const ReplicatedResult rep = run_replications(cfg, 2);
  const std::string json = to_json(cfg, rep);
  // Well-formed object boundaries and balanced brackets.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Every schema key present.
  for (const char* key :
       {"\"policy\":\"DRR2-TTL/S_K\"", "\"servers\":7", "\"p_max_util_below_098\":",
        "\"aggregate_utilization\":", "\"address_request_rate\":",
        "\"dns_controlled_fraction\":", "\"mean_response_sec\":",
        "\"mean_server_utilization\":["}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(RunnerTest, RejectsZeroReplications) {
  EXPECT_THROW(run_replications(short_config("RR"), 0), std::invalid_argument);
}

TEST(RateShiftIntegration, FlashCrowdRaisesLoadAndEstimatorNotices) {
  SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.policy = "PRR2-TTL/K";
  cfg.oracle_weights = false;
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 2000.0;
  cfg.seed = 13;
  // Domain 15 (cold under Zipf) becomes 12x hotter at t = 600.
  cfg.rate_shifts.push_back({600.0, 15, 12.0});
  Site site(cfg);
  site.run();
  EXPECT_DOUBLE_EQ(site.think_time_model().rate_multiplier(15), 12.0);
  // The online estimator must now rank domain 15 well above its Zipf
  // neighbours (14, 16).
  EXPECT_GT(site.domain_model().weight(15), 3.0 * site.domain_model().weight(14));
  EXPECT_GT(site.domain_model().weight(15), 3.0 * site.domain_model().weight(16));
}

TEST(RateShiftIntegration, ShiftsValidated) {
  SimulationConfig cfg;
  cfg.rate_shifts.push_back({-5.0, 0, 2.0});
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.rate_shifts = {{10.0, 99, 2.0}};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.rate_shifts = {{10.0, 0, 0.0}};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.rate_shifts = {{10.0, 0, 2.0}};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ResponseTimeMetrics, OverloadInflatesWeakServerResponse) {
  SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(65);
  cfg.policy = "RR";
  cfg.warmup_sec = 100.0;
  cfg.duration_sec = 1500.0;
  cfg.seed = 21;
  const RunResult rr = Site(cfg).run();
  cfg.policy = "DRR2-TTL/S_K";
  const RunResult adaptive = Site(cfg).run();
  EXPECT_GT(rr.mean_page_response_sec, 0.0);
  EXPECT_GT(adaptive.mean_page_response_sec, 0.0);
  // RR pins hot domains onto 0.35-capacity servers for 240 s at a time;
  // its mean response time must be clearly worse.
  EXPECT_GT(rr.mean_page_response_sec, adaptive.mean_page_response_sec);
  EXPECT_EQ(rr.per_server_response_sec.size(), 7u);
}

}  // namespace
}  // namespace adattl::experiment
