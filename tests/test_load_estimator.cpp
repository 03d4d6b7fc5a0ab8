#include "core/load_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace adattl::core {
namespace {

TEST(LoadEstimator, RejectsBadSmoothing) {
  DomainModel m({1.0, 1.0}, 0.4);
  EXPECT_THROW(EwmaLoadEstimator(m, 0.0), std::invalid_argument);
  EXPECT_THROW(EwmaLoadEstimator(m, 1.5), std::invalid_argument);
}

TEST(LoadEstimator, FirstWindowSeedsEstimateOutright) {
  DomainModel m({1.0, 1.0, 1.0}, 0.2);
  EwmaLoadEstimator est(m, 0.3);
  est.observe({800, 160, 40}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 100.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 20.0);
  EXPECT_DOUBLE_EQ(m.weight(2), 5.0);
}

TEST(LoadEstimator, EwmaBlendsSubsequentWindows) {
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.5);
  est.observe({80, 40}, 8.0);   // rates 10, 5
  est.observe({160, 40}, 8.0);  // rates 20, 5
  EXPECT_DOUBLE_EQ(m.weight(0), 15.0);  // 0.5*20 + 0.5*10
  EXPECT_DOUBLE_EQ(m.weight(1), 5.0);
}

TEST(LoadEstimator, ConvergesToStationaryRates) {
  DomainModel m({1.0, 1.0, 1.0, 1.0}, 0.2);
  EwmaLoadEstimator est(m, 0.3);
  for (int w = 0; w < 50; ++w) est.observe({400, 200, 100, 100}, 8.0);
  EXPECT_NEAR(m.share(0), 0.5, 1e-6);
  EXPECT_NEAR(m.share(1), 0.25, 1e-6);
  EXPECT_NEAR(m.share(3), 0.125, 1e-6);
}

TEST(LoadEstimator, OracleModeNeverTouchesModel) {
  DomainModel m({7.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.3, /*oracle=*/true);
  est.observe({10, 1000}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 7.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 1.0);
  EXPECT_EQ(est.windows_observed(), 0);
}

TEST(LoadEstimator, ObserveReportsWhetherItInstalledWeights) {
  // The sharded run copies the weights into every other shard's model only
  // when observe() says it installed some; every kind must say so exactly.
  using Make = std::function<std::unique_ptr<LoadEstimator>(DomainModel&, bool)>;
  const std::vector<std::pair<const char*, Make>> kinds = {
      {"ewma",
       [](DomainModel& m, bool oracle) {
         return std::make_unique<EwmaLoadEstimator>(m, 0.3, oracle);
       }},
      {"sliding-window",
       [](DomainModel& m, bool oracle) {
         return std::make_unique<SlidingWindowLoadEstimator>(m, 3, oracle);
       }},
      {"holt-winters",
       [](DomainModel& m, bool oracle) {
         return std::make_unique<HoltWintersLoadEstimator>(m, 0.3, 0.2, oracle);
       }},
      {"ar",
       [](DomainModel& m, bool oracle) {
         return std::make_unique<ArLoadEstimator>(m, 2, oracle);
       }},
  };
  const std::vector<double> prior = {3.0, 1.0};
  for (const auto& [name, make] : kinds) {
    SCOPED_TRACE(name);
    DomainModel oracle_model(prior, 0.4);
    EXPECT_FALSE(make(oracle_model, true)->observe({80, 40}, 8.0));
    EXPECT_EQ(oracle_model.weights(), prior);

    DomainModel m(prior, 0.4);
    const std::unique_ptr<LoadEstimator> est = make(m, false);
    // A first window without traffic yields no positive weight to install.
    EXPECT_FALSE(est->observe({0, 0}, 8.0));
    EXPECT_EQ(m.weights(), prior);
    EXPECT_TRUE(est->observe({80, 40}, 8.0));
    EXPECT_NE(m.weights(), prior);
  }
}

TEST(LoadEstimator, AllZeroWindowKeepsPreviousWeights) {
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 1.0);  // no memory: a zero window yields all-zero weights
  est.observe({80, 40}, 8.0);
  est.observe({0, 0}, 8.0);
  // The all-zero weight vector carries no ranking information, so the model
  // keeps the last valid weights (DomainModel rejects total <= 0)...
  EXPECT_DOUBLE_EQ(m.weight(0), 10.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 5.0);
  // ...but the estimator itself HAS incorporated the lull (alpha = 1 wipes
  // its internal rates), so the next window seeds the model afresh.
  est.observe({8, 80}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 10.0);
}

TEST(LoadEstimator, EwmaDecaysThroughTrafficLulls) {
  // The observe() bug this guards against: empty windows were skipped
  // entirely, freezing a stale hot-domain estimate through a lull instead
  // of decaying it.
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.5);
  est.observe({800, 80}, 8.0);  // rates 100, 10
  for (int w = 0; w < 3; ++w) est.observe({0, 0}, 8.0);
  // Three empty windows halve the estimate three times: 100 -> 12.5.
  EXPECT_DOUBLE_EQ(est.level()[0], 12.5);
  EXPECT_DOUBLE_EQ(est.level()[1], 1.25);
  // Shares are scale-free, so the installed model still ranks domain 0
  // first — but a single busy window for domain 1 now flips the ranking
  // quickly instead of fighting a frozen rate of 100.
  est.observe({0, 400}, 8.0);  // rates 0, 50
  EXPECT_GT(m.share(1), m.share(0));
}

TEST(LoadEstimator, EwmaUnseededZeroWindowsAreNoOps) {
  // Before any traffic there is nothing to decay or seed from: all-zero
  // windows leave the estimator unseeded and the model untouched.
  DomainModel m({3.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.3);
  est.observe({0, 0}, 8.0);
  est.observe({0, 0}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 3.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 1.0);
  // Regression: discarded pre-seed windows used to count as "observed"
  // (the counter was bumped before incorporate() could reject them), so
  // windows_observed() — and the kEstimatorUpdate trace record built from
  // it — reported updates that never happened.
  EXPECT_EQ(est.windows_observed(), 0);
  // The first real window still seeds outright (not blended with zeros)
  // and is the first window that counts.
  est.observe({80, 40}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 10.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 5.0);
  EXPECT_EQ(est.windows_observed(), 1);
}

TEST(LoadEstimator, WindowsObservedCountsOnlyIncorporatedWindows) {
  // Pins the observe()/incorporate() contract: empty return == discarded
  // window == not counted; every non-empty return counts, including
  // post-seed lulls (which DO update estimator state even though the
  // all-zero result is not installed).
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 1.0);
  est.observe({0, 0}, 8.0);  // pre-seed lull: discarded
  EXPECT_EQ(est.windows_observed(), 0);
  est.observe({80, 40}, 8.0);  // seeds
  EXPECT_EQ(est.windows_observed(), 1);
  est.observe({0, 0}, 8.0);  // post-seed lull: wipes rates_, counts
  EXPECT_EQ(est.windows_observed(), 2);
  est.observe({8, 8}, 8.0);
  EXPECT_EQ(est.windows_observed(), 3);
}

TEST(LoadEstimator, ColdStartSeedsFromModelPriorNotFirstWindow) {
  // Regression: with estimator_cold_start the model deliberately starts
  // from uniform weights, but the estimator still seeded OUTRIGHT from the
  // first non-empty window — zero smoothing, so a flash crowd landing in
  // that window became the entire estimate. The fix seeds from the
  // installed prior (scale-matched to the window's total) and blends the
  // first window through the normal smoothing path.
  DomainModel m({1.0, 1.0}, 0.4);  // cold start: uniform prior
  EwmaLoadEstimator est(m, 0.3, /*oracle=*/false, /*seed_from_model=*/true);
  est.observe({800, 80}, 8.0);  // first window IS the spike: rates {100, 10}
  // Prior {1, 1} scaled to the observed total 110 -> {55, 55}; one normal
  // blend: 0.3 * {100, 10} + 0.7 * {55, 55} = {68.5, 41.5}.
  EXPECT_DOUBLE_EQ(m.weight(0), 68.5);
  EXPECT_DOUBLE_EQ(m.weight(1), 41.5);
  // Pre-fix the estimate anchored at share(0) = 100/110 = 0.909 after one
  // window; the prior keeps the first window's influence at ~alpha.
  EXPECT_LT(m.share(0), 0.7);
  // Pre-seed all-zero windows are still discarded under cold start.
  DomainModel m2({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est2(m2, 0.3, false, true);
  est2.observe({0, 0}, 8.0);
  EXPECT_EQ(est2.windows_observed(), 0);
  EXPECT_DOUBLE_EQ(m2.weight(0), 1.0);
}

TEST(HoltWintersEstimator, RejectsBadParameters) {
  DomainModel m({1.0, 1.0}, 0.4);
  EXPECT_THROW(HoltWintersLoadEstimator(m, 0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(HoltWintersLoadEstimator(m, 1.5, 0.1), std::invalid_argument);
  EXPECT_THROW(HoltWintersLoadEstimator(m, 0.3, -0.1), std::invalid_argument);
  EXPECT_THROW(HoltWintersLoadEstimator(m, 0.3, 1.5), std::invalid_argument);
}

TEST(HoltWintersEstimator, ZeroTrendDegradesToEwma) {
  // With beta = 0 the trend stays at its zero seed, so the level follows
  // the EWMA recurrence level = 0.4 * rate + 0.6 * level and the installed
  // forecast is the level. By hand: rates {10, 5} seed the level, then
  // {20, 5} -> {14, 5}, {5, 25} -> {10.4, 13}, {0, 0} -> {6.24, 7.8} and
  // {10, 10} -> {7.744, 8.68}. EwmaLoadEstimator is that estimator.
  DomainModel m1({1.0, 1.0}, 0.4);
  DomainModel m2({1.0, 1.0}, 0.4);
  HoltWintersLoadEstimator hw(m1, 0.4, 0.0);
  EwmaLoadEstimator ewma(m2, 0.4);
  const std::vector<std::vector<std::uint64_t>> windows = {
      {80, 40}, {160, 40}, {40, 200}, {0, 0}, {80, 80}};
  for (const auto& w : windows) {
    hw.observe(w, 8.0);
    ewma.observe(w, 8.0);
  }
  for (const DomainModel* m : {&m1, &m2}) {
    EXPECT_NEAR(m->weight(0), 7.744, 1e-12);
    EXPECT_NEAR(m->weight(1), 8.68, 1e-12);
  }
  EXPECT_EQ(hw.trend(), std::vector<double>(2, 0.0));
  EXPECT_EQ(ewma.trend(), std::vector<double>(2, 0.0));
}

TEST(HoltWintersEstimator, TracksLinearRampAheadOfEwma) {
  // On a steady ramp (rate + 5 per window) the trend term extrapolates
  // while plain EWMA lags by ~(1-alpha)/alpha steps.
  DomainModel m1({1.0, 1.0}, 0.4);
  DomainModel m2({1.0, 1.0}, 0.4);
  HoltWintersLoadEstimator hw(m1, 0.3, 0.2);
  EwmaLoadEstimator ewma(m2, 0.3);
  double true_rate = 10.0;
  for (int w = 0; w < 60; ++w) {
    const auto hits = static_cast<std::uint64_t>(true_rate * 8.0);
    hw.observe({hits, 80}, 8.0);
    ewma.observe({hits, 80}, 8.0);
    true_rate += 5.0;
  }
  const double hw_err = std::abs(m1.weight(0) - true_rate);
  const double ewma_err = std::abs(m2.weight(0) - true_rate);
  EXPECT_LT(hw_err, ewma_err);
  EXPECT_LT(hw_err, 10.0);    // converged trend: forecast within 2 windows' slope
  EXPECT_GT(ewma_err, 15.0);  // EWMA's structural lag: slope * (1-a)/a ~ 11.7 behind
}

TEST(HoltWintersEstimator, ForecastFlooredAtZeroOnCooldown) {
  DomainModel m({1.0, 1.0}, 0.4);
  HoltWintersLoadEstimator hw(m, 0.8, 0.8);
  hw.observe({8000, 80}, 8.0);
  for (int w = 0; w < 10; ++w) hw.observe({0, 80}, 8.0);
  // A steep negative trend must not install a negative weight.
  EXPECT_GE(m.weight(0), 0.0);
  EXPECT_GT(m.weight(1), 0.0);
}

TEST(HoltWintersEstimator, ColdStartSeedsFromModelPrior) {
  DomainModel m({1.0, 1.0}, 0.4);
  HoltWintersLoadEstimator hw(m, 0.3, 0.2, /*oracle=*/false, /*seed_from_model=*/true);
  hw.observe({800, 80}, 8.0);
  // Same arithmetic as the EWMA cold-start case (trend seeds at zero, so
  // the first forecast is the blended level plus beta * its own change).
  EXPECT_LT(m.share(0), 0.75);
  EXPECT_GT(m.weight(1), 0.0);
}

// Exposes the protected incorporate() hook so AR tests can feed exact
// doubles instead of hits/window ratios.
struct ArProbe : ArLoadEstimator {
  using ArLoadEstimator::ArLoadEstimator;
  std::vector<double> feed(const std::vector<double>& rates) { return incorporate(rates); }
};

TEST(ArEstimator, RejectsBadOrder) {
  DomainModel m({1.0}, 0.4);
  EXPECT_THROW(ArLoadEstimator(m, 0), std::invalid_argument);
  EXPECT_THROW(ArLoadEstimator(m, -3), std::invalid_argument);
}

TEST(ArEstimator, FallsBackToNewestObservationUntilFitSupported) {
  DomainModel m({1.0}, 0.4);
  ArProbe ar(m, 3);
  // Fewer than p + 2 = 5 regression rows -> persistence forecast.
  EXPECT_DOUBLE_EQ(ar.feed({10.0})[0], 10.0);
  EXPECT_DOUBLE_EQ(ar.feed({14.0})[0], 14.0);
  EXPECT_DOUBLE_EQ(ar.feed({12.0})[0], 12.0);
}

TEST(ArEstimator, ConstantHistoryForecastsTheConstant) {
  // A constant series makes the lag columns collinear with the intercept;
  // the singular fallback must forecast the constant (persistence), not
  // blow up or emit garbage.
  DomainModel m({1.0}, 0.4);
  ArProbe ar(m, 2);
  std::vector<double> out;
  for (int w = 0; w < 30; ++w) out = ar.feed({42.0});
  EXPECT_DOUBLE_EQ(out[0], 42.0);
}

TEST(ArEstimator, RecoversExactAr1Process) {
  // Noise-free AR(1): x' = 0.5 x + 20 from x0 = 100. The least-squares fit
  // over distinct points recovers (c, phi) exactly, so the one-step
  // forecast equals the true next value.
  DomainModel m({1.0}, 0.4);
  ArProbe ar(m, 1);
  double x = 100.0;
  double forecast = 0.0;
  for (int w = 0; w < 12; ++w) {
    forecast = ar.feed({x})[0];
    x = 0.5 * x + 20.0;
  }
  EXPECT_NEAR(forecast, x, 1e-6);
}

TEST(PredictiveEstimators, ReconvergeFasterThanEwmaAfterStep) {
  // The flash-crowd shape at unit scale: a stationary phase, then an 8x
  // step. Count windows until each estimator's installed share of the
  // spiked domain is within 2% of the new truth. AR snaps in O(1) windows
  // (post-step its forecast rides the newest observations); Holt-Winters
  // closes the gap faster than EWMA because the trend term extrapolates
  // the jump; EWMA needs ~1/alpha * ln(1/eps) windows.
  const auto windows_to_converge = [](auto& est, DomainModel& m) {
    for (int w = 0; w < 40; ++w) est.observe({100 * 8, 100 * 8}, 8.0);
    const double true_share = 800.0 / 900.0;
    for (int w = 1; w <= 200; ++w) {
      est.observe({800 * 8, 100 * 8}, 8.0);
      if (std::abs(m.share(0) - true_share) < 0.02) return w;
    }
    return 1000;
  };
  DomainModel me({1.0, 1.0}, 0.4);
  DomainModel mh({1.0, 1.0}, 0.4);
  DomainModel ma({1.0, 1.0}, 0.4);
  EwmaLoadEstimator ewma(me, 0.3);
  HoltWintersLoadEstimator hw(mh, 0.3, 0.2);
  ArLoadEstimator ar(ma, 3);
  const int we = windows_to_converge(ewma, me);
  const int wh = windows_to_converge(hw, mh);
  const int wa = windows_to_converge(ar, ma);
  EXPECT_LT(wh, we);
  EXPECT_LT(wa, we);
  EXPECT_GT(we, 3);  // sanity: EWMA at default smoothing really does lag
}

TEST(PredictiveEstimators, OracleModeInert) {
  DomainModel m1({9.0, 1.0}, 0.4);
  DomainModel m2({9.0, 1.0}, 0.4);
  HoltWintersLoadEstimator hw(m1, 0.3, 0.2, /*oracle=*/true);
  ArLoadEstimator ar(m2, 3, /*oracle=*/true);
  hw.observe({1, 99}, 8.0);
  ar.observe({1, 99}, 8.0);
  EXPECT_DOUBLE_EQ(m1.weight(0), 9.0);
  EXPECT_DOUBLE_EQ(m2.weight(0), 9.0);
  EXPECT_EQ(hw.windows_observed(), 0);
  EXPECT_EQ(ar.windows_observed(), 0);
}

TEST(SlidingWindowEstimator, EmptyWindowsAgeOutOldTraffic) {
  DomainModel m({1.0, 1.0}, 0.4);
  SlidingWindowLoadEstimator est(m, 2);
  est.observe({160, 16}, 8.0);  // rates {20, 2}
  est.observe({0, 0}, 8.0);     // window {{20,2},{0,0}} -> mean {10, 1}
  EXPECT_DOUBLE_EQ(m.weight(0), 10.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 1.0);
  // A second empty window pushes the traffic out of the window entirely;
  // the all-zero mean is not installed, so the last weights persist.
  est.observe({0, 0}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 10.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 1.0);
  // New traffic is then averaged against the remembered empty window.
  est.observe({160, 160}, 8.0);  // rates {20, 20}; window mean {10, 10}
  EXPECT_DOUBLE_EQ(m.weight(0), 10.0);
  EXPECT_DOUBLE_EQ(m.weight(1), 10.0);
}

TEST(LoadEstimator, TracksShiftingHotSpot) {
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.5);
  for (int w = 0; w < 20; ++w) est.observe({100, 10}, 8.0);
  EXPECT_TRUE(m.is_hot(0));
  EXPECT_FALSE(m.is_hot(1));
  for (int w = 0; w < 20; ++w) est.observe({10, 100}, 8.0);
  EXPECT_FALSE(m.is_hot(0));
  EXPECT_TRUE(m.is_hot(1));
}

TEST(LoadEstimator, RejectsMismatchedInput) {
  DomainModel m({1.0, 1.0}, 0.4);
  EwmaLoadEstimator est(m, 0.3);
  EXPECT_THROW(est.observe({1, 2, 3}, 8.0), std::invalid_argument);
  EXPECT_THROW(est.observe({1, 2}, 0.0), std::invalid_argument);
}

TEST(SlidingWindowEstimator, RejectsBadWindowCount) {
  DomainModel m({1.0, 1.0}, 0.4);
  EXPECT_THROW(SlidingWindowLoadEstimator(m, 0), std::invalid_argument);
}

TEST(SlidingWindowEstimator, AveragesOverWindow) {
  DomainModel m({1.0, 1.0}, 0.4);
  SlidingWindowLoadEstimator est(m, 3);
  est.observe({80, 8}, 8.0);   // rates 10, 1
  est.observe({160, 8}, 8.0);  // rates 20, 1
  EXPECT_DOUBLE_EQ(m.weight(0), 15.0);  // mean of 10, 20
  est.observe({240, 8}, 8.0);  // rates 30, 1
  EXPECT_DOUBLE_EQ(m.weight(0), 20.0);  // mean of 10, 20, 30
}

TEST(SlidingWindowEstimator, OldWindowsFallOut) {
  DomainModel m({1.0, 1.0}, 0.4);
  SlidingWindowLoadEstimator est(m, 2);
  est.observe({80, 8}, 8.0);   // 10
  est.observe({160, 8}, 8.0);  // 20
  est.observe({240, 8}, 8.0);  // 30 -> window now {20, 30}
  EXPECT_DOUBLE_EQ(m.weight(0), 25.0);
}

TEST(SlidingWindowEstimator, OracleModeInert) {
  DomainModel m({9.0, 1.0}, 0.4);
  SlidingWindowLoadEstimator est(m, 4, /*oracle=*/true);
  est.observe({1, 99}, 8.0);
  EXPECT_DOUBLE_EQ(m.weight(0), 9.0);
}

TEST(SlidingWindowEstimator, TracksShiftSlowerThanEwma) {
  DomainModel m1({1.0, 1.0}, 0.4);
  DomainModel m2({1.0, 1.0}, 0.4);
  EwmaLoadEstimator ewma(m1, 0.5);
  SlidingWindowLoadEstimator window(m2, 8);
  for (int w = 0; w < 10; ++w) {
    ewma.observe({100, 10}, 8.0);
    window.observe({100, 10}, 8.0);
  }
  // Abrupt shift: the EWMA (alpha .5) adapts faster than an 8-window mean.
  ewma.observe({10, 100}, 8.0);
  window.observe({10, 100}, 8.0);
  EXPECT_LT(m1.weight(0), m2.weight(0));
  EXPECT_GT(m1.weight(1), m2.weight(1));
}

// Exposes the protected incorporate() hook so the drift test can drive
// windows directly and compare each returned average to the ground truth.
struct SlidingWindowProbe : SlidingWindowLoadEstimator {
  using SlidingWindowLoadEstimator::SlidingWindowLoadEstimator;
  std::vector<double> feed(const std::vector<double>& rates) { return incorporate(rates); }
};

TEST(SlidingWindowEstimator, NoFloatingPointDriftOverAMillionWindows) {
  // Regression (PR 8): the pre-fix estimator kept an add-then-subtract
  // running sum. A flash-crowd window (1e16) absorbs every ordinary rate
  // added after it (1e16 + 1.0 == 1e16 in double), so once the spike ages
  // out, the subtraction leaves ~0 where the small windows' mass should
  // be — the reported average collapses and *stays* wrong forever. The
  // fix recomputes the sums from the retained windows each call; here a
  // shadow deque recomputes the exact same reduction independently and
  // every returned average must match, across a million windows.
  DomainModel m({1.0, 1.0}, 0.4);
  SlidingWindowProbe est(m, 32);
  std::deque<std::vector<double>> shadow;
  for (int w = 0; w < 1'000'000; ++w) {
    std::vector<double> rates(2);
    rates[0] = (w % 1000 == 500) ? 1e16 : 1.0 + static_cast<double>(w % 7) * 0.125;
    rates[1] = 2.0 + static_cast<double>(w % 5) * 0.0625;
    shadow.push_back(rates);
    if (shadow.size() > 32) shadow.pop_front();

    const std::vector<double> avg = est.feed(rates);
    double expect0 = 0.0;
    double expect1 = 0.0;
    for (const std::vector<double>& win : shadow) {
      expect0 += win[0];
      expect1 += win[1];
    }
    expect0 /= static_cast<double>(shadow.size());
    expect1 /= static_cast<double>(shadow.size());
    ASSERT_EQ(avg[0], expect0) << "window " << w;
    ASSERT_EQ(avg[1], expect1) << "window " << w;
  }
}

TEST(LoadEstimator, InstalledWeightsNeverHitExactZero) {
  // Regression: a predictive forecast can legitimately clamp to exactly
  // zero — AR predicting past the bottom of a decay, Holt-Winters' floored
  // level+trend, a sliding window whose every retained window saw zero
  // hits for a domain. Installing that zero verbatim tells weight-*ratio*
  // consumers the domain never gets requests: AdaptiveTtlPolicy's
  // hottest/weight domain factor lands on its 1e-12 div-by-zero guard and
  // hands out TTLs ~1e12x the reference (observed as a mean handed-out TTL
  // of ~4e13 s in a 600 s run). observe() floors every installed weight at
  // kMinInstallFraction of the hottest installed weight instead.
  DomainModel m({1.0, 1.0}, 0.4);
  ArLoadEstimator ar(m, 3);
  // Two windows is below AR(3)'s fit threshold, so the forecast is the
  // newest-observation fallback — exactly 0 for domain 0. (The fitted
  // path produces the same zero whenever the regression predicts past the
  // bottom of a decay and clamps.) Domain 1's fallback forecast is 50.
  ar.observe({80, 400}, 8.0);
  ar.observe({0, 400}, 8.0);
  EXPECT_GT(m.weight(0), 0.0);
  EXPECT_GT(m.share(0), 0.0);
  EXPECT_DOUBLE_EQ(m.weight(0), LoadEstimator::kMinInstallFraction * m.weight(1));
}

TEST(SlidingWindowEstimator, AllZeroDomainInstallsPositiveFloor) {
  // Pre-existing shape of the same defect: a domain with zero hits in
  // every retained window averages to exactly 0 — no predictive estimator
  // required.
  DomainModel m({1.0, 1.0}, 0.4);
  SlidingWindowLoadEstimator est(m, 2);
  est.observe({0, 160}, 8.0);
  est.observe({0, 160}, 8.0);
  EXPECT_GT(m.weight(0), 0.0);
  EXPECT_DOUBLE_EQ(m.weight(0), LoadEstimator::kMinInstallFraction * 20.0);
}

}  // namespace
}  // namespace adattl::core
