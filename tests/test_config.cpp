#include "experiment/config.h"

#include <gtest/gtest.h>

namespace adattl::experiment {
namespace {

TEST(Config, DefaultsMatchPaperTable1) {
  const SimulationConfig c;
  EXPECT_EQ(c.num_domains, 20);
  EXPECT_EQ(c.total_clients, 500);
  EXPECT_DOUBLE_EQ(c.mean_think_sec, 15.0);
  EXPECT_DOUBLE_EQ(c.zipf_theta, 1.0);
  EXPECT_DOUBLE_EQ(c.session.mean_pages_per_session, 20.0);
  EXPECT_EQ(c.session.min_hits_per_page, 5);
  EXPECT_EQ(c.session.max_hits_per_page, 15);
  EXPECT_EQ(c.cluster.size(), 7);
  EXPECT_DOUBLE_EQ(c.cluster.total_capacity_hits_per_sec, 500.0);
  EXPECT_DOUBLE_EQ(c.monitor_interval_sec, 8.0);
  EXPECT_DOUBLE_EQ(c.reference_ttl_sec, 240.0);
  EXPECT_DOUBLE_EQ(c.duration_sec, 18000.0);  // 5 simulated hours
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, EffectiveClassThresholdDefaultsToOneOverK) {
  SimulationConfig c;
  EXPECT_DOUBLE_EQ(c.effective_class_threshold(), 1.0 / 20);
  c.num_domains = 50;
  EXPECT_DOUBLE_EQ(c.effective_class_threshold(), 1.0 / 50);
  c.class_threshold = 0.1;
  EXPECT_DOUBLE_EQ(c.effective_class_threshold(), 0.1);
}

TEST(Config, OfferedLoadMatchesTwoThirdsUtilization) {
  // 500 clients x 10 hits / (15 s think + ~0.2 s service) ~ 329 hits/s
  // against 500 hits/s capacity: the paper's 2/3 average utilization.
  const SimulationConfig c;
  const double offered = c.total_clients * c.session.mean_hits_per_page() / c.mean_think_sec;
  EXPECT_NEAR(offered / c.cluster.total_capacity_hits_per_sec, 2.0 / 3.0, 0.01);
}

TEST(Config, ValidateCatchesEachBadField) {
  auto expect_bad = [](auto mutate) {
    SimulationConfig c;
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  expect_bad([](SimulationConfig& c) { c.num_domains = 0; });
  expect_bad([](SimulationConfig& c) { c.total_clients = 0; });
  expect_bad([](SimulationConfig& c) { c.mean_think_sec = 0; });
  expect_bad([](SimulationConfig& c) { c.zipf_theta = -1; });
  expect_bad([](SimulationConfig& c) { c.rate_perturbation_percent = -5; });
  expect_bad([](SimulationConfig& c) { c.policy.clear(); });
  expect_bad([](SimulationConfig& c) { c.reference_ttl_sec = 0; });
  expect_bad([](SimulationConfig& c) { c.alarm_threshold = 0; });
  expect_bad([](SimulationConfig& c) { c.alarm_threshold = 1.1; });
  expect_bad([](SimulationConfig& c) { c.monitor_interval_sec = 0; });
  expect_bad([](SimulationConfig& c) { c.estimator_smoothing = 0; });
  expect_bad([](SimulationConfig& c) { c.estimator_collect_every_ticks = 0; });
  expect_bad([](SimulationConfig& c) { c.ns_min_ttl_sec = -1; });
  expect_bad([](SimulationConfig& c) { c.warmup_sec = -1; });
  expect_bad([](SimulationConfig& c) { c.duration_sec = 0; });
  expect_bad([](SimulationConfig& c) { c.cluster.relative = {0.5, 1.0}; });
  expect_bad([](SimulationConfig& c) { c.session.min_hits_per_page = 0; });
  expect_bad([](SimulationConfig& c) { c.scale = 0.0009; });
  expect_bad([](SimulationConfig& c) {
    c.total_clients = 1;
    c.scale = 0.4;
  });
}

TEST(Config, ValidateBoundsThePerturbationByThePopulation) {
  // The busiest of 20 Zipf(1) domains over 500 clients holds 139 of them,
  // so an error of 100 (500 / 139 - 1) = 259.7% or more would leave the
  // other domains no load.
  SimulationConfig c;
  c.rate_perturbation_percent = 259.0;
  EXPECT_NO_THROW(c.validate());
  c.rate_perturbation_percent = 260.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  // One domain holds all the load: only no error at all leaves it some.
  c.num_domains = 1;
  c.rate_perturbation_percent = 0.0;
  EXPECT_NO_THROW(c.validate());
  c.rate_perturbation_percent = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ScaledThrowsWhenThePopulationRoundsToNoClient) {
  SimulationConfig c;
  c.scale = 0.0009;  // 0.45 clients
  EXPECT_THROW(c.scaled(), std::invalid_argument);
  c.scale = 0.002;
  EXPECT_EQ(c.scaled().total_clients, 1);
}

}  // namespace
}  // namespace adattl::experiment
