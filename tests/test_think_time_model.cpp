#include "workload/think_time_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workload/client_pool.h"

namespace adattl::workload {
namespace {

TEST(ThinkTimeModel, RejectsBadConstruction) {
  EXPECT_THROW(ThinkTimeModel({}), std::invalid_argument);
  EXPECT_THROW(ThinkTimeModel({15.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ThinkTimeModel({-1.0}), std::invalid_argument);
}

TEST(ThinkTimeModel, BaseMeansExposed) {
  ThinkTimeModel m({15.0, 10.0});
  EXPECT_EQ(m.num_domains(), 2);
  EXPECT_DOUBLE_EQ(m.mean_think(0), 15.0);
  EXPECT_DOUBLE_EQ(m.mean_think(1), 10.0);
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), 1.0);
}

TEST(ThinkTimeModel, ScaleRateShrinksThinkTime) {
  ThinkTimeModel m({15.0});
  m.scale_rate(0, 3.0);  // 3x hotter -> think time / 3
  EXPECT_DOUBLE_EQ(m.mean_think(0), 5.0);
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), 3.0);
}

TEST(ThinkTimeModel, ScalesCompose) {
  ThinkTimeModel m({12.0});
  m.scale_rate(0, 2.0);
  m.scale_rate(0, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_think(0), 2.0);
  m.scale_rate(0, 1.0 / 6.0);  // cool back down
  EXPECT_DOUBLE_EQ(m.mean_think(0), 12.0);
}

TEST(ThinkTimeModel, ResetRestoresBase) {
  ThinkTimeModel m({15.0, 20.0});
  m.scale_rate(1, 5.0);
  m.reset_rate(1);
  EXPECT_DOUBLE_EQ(m.mean_think(1), 20.0);
  EXPECT_DOUBLE_EQ(m.mean_think(0), 15.0);
}

TEST(ThinkTimeModel, RejectsNonPositiveFactor) {
  ThinkTimeModel m({15.0});
  EXPECT_THROW(m.scale_rate(0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.scale_rate(0, -2.0), std::invalid_argument);
}

TEST(ThinkTimeModel, RejectsNonFiniteFactor) {
  // Regression: scale_rate accepted inf/NaN, which poisoned the multiplier
  // permanently (every later composition stays non-finite).
  ThinkTimeModel m({15.0});
  EXPECT_THROW(m.scale_rate(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(m.scale_rate(0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(m.set_rate(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(m.set_rate(0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), 1.0);
}

TEST(ThinkTimeModel, ComposedMultiplierIsClamped) {
  // Regression: composition was unbounded. A long generated trace of small
  // multiplicative steps (here 5000 x 1.5x, ~10^880) drove the multiplier
  // to inf and mean_think to 0, flooding the event queue with zero-delay
  // wakeups; the mirror-image cooling trace underflowed to denormal/0 and
  // silently killed the domain (mean_think -> inf).
  ThinkTimeModel hot({10.0});
  for (int i = 0; i < 5000; ++i) hot.scale_rate(0, 1.5);
  EXPECT_DOUBLE_EQ(hot.rate_multiplier(0), ThinkTimeModel::kMaxRateMultiplier);
  EXPECT_GT(hot.mean_think(0), 0.0);

  ThinkTimeModel cold({10.0});
  for (int i = 0; i < 5000; ++i) cold.scale_rate(0, 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(cold.rate_multiplier(0), ThinkTimeModel::kMinRateMultiplier);
  EXPECT_TRUE(std::isfinite(cold.mean_think(0)));
  // Clamped is recoverable: scaling back up works (the pre-fix underflow
  // to 0 was not — 0 * anything stays 0).
  cold.scale_rate(0, 1e6);
  EXPECT_DOUBLE_EQ(cold.rate_multiplier(0), 1.0);
}

TEST(ThinkTimeModel, SetRateIsAbsoluteAndIdempotent) {
  ThinkTimeModel m({12.0});
  m.scale_rate(0, 4.0);
  m.set_rate(0, 3.0);  // absolute: replaces, does not compose with the 4x
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), 3.0);
  EXPECT_DOUBLE_EQ(m.mean_think(0), 4.0);
  m.set_rate(0, 3.0);  // replaying the same trace point changes nothing
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), 3.0);
  EXPECT_THROW(m.set_rate(0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.set_rate(0, -1.0), std::invalid_argument);
  m.set_rate(0, 1e12);  // clamped to the validated range
  EXPECT_DOUBLE_EQ(m.rate_multiplier(0), ThinkTimeModel::kMaxRateMultiplier);
}

TEST(ThinkTimeModel, SampleMeanTracksScaledRate) {
  ThinkTimeModel m({20.0});
  m.scale_rate(0, 4.0);  // mean think now 5
  sim::RngStream rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += m.sample(0, rng);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(ThinkTimeModel, OutOfRangeDomainThrows) {
  ThinkTimeModel m({15.0});
  EXPECT_THROW(m.mean_think(1), std::out_of_range);
  EXPECT_THROW(m.scale_rate(5, 2.0), std::out_of_range);
}

TEST(SessionProfilePareto, SamplesStayInBounds) {
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.min_hits_per_page = 5;
  p.max_hits_per_page = 50;
  sim::RngStream rng(10);
  for (int i = 0; i < 20000; ++i) {
    const int h = p.sample_hits(rng);
    ASSERT_GE(h, 5);
    ASSERT_LE(h, 50);
  }
}

TEST(SessionProfilePareto, HeavyTailSkewsLow) {
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.min_hits_per_page = 5;
  p.max_hits_per_page = 50;
  sim::RngStream rng(11);
  int small = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (p.sample_hits(rng) <= 10) ++small;
  }
  // A 1.5-shape bounded Pareto puts well over half its mass near the
  // minimum (uniform would put ~13% in [5, 10]).
  EXPECT_GT(small, n / 2);
}

TEST(SessionProfilePareto, EmpiricalMeanMatchesFormula) {
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.min_hits_per_page = 5;
  p.max_hits_per_page = 50;
  sim::RngStream rng(12);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += p.sample_hits(rng);
  // Discretization (floor + clamp) shifts the mean ~0.5 below the
  // continuous formula; allow a loose band.
  EXPECT_NEAR(sum / n, p.mean_hits_per_page(), 1.0);
}

TEST(SessionProfilePareto, RejectsBadShape) {
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.pareto_shape = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace adattl::workload
