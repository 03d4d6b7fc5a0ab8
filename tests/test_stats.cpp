#include "sim/stats.h"

#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace adattl::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(RunningStat, StableForManySamples) {
  RunningStat s;
  for (int i = 0; i < 1000000; ++i) s.add(1000.0 + (i % 2 ? 0.5 : -0.5));
  EXPECT_NEAR(s.mean(), 1000.0, 1e-9);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

// ---- The max-utilization CDF ----
//
// The paper's "cumulative frequency of maximum server utilization" is a
// Histogram over [0, 1) (MaxUtilizationTracker, RunResult::max_util_cdf);
// these tests pin its CDF and quantile queries.

TEST(EmpiricalCdf, ProbBelowBasics) {
  Histogram c(1.0, 100);
  for (int i = 0; i < 50; ++i) c.add(0.25);
  for (int i = 0; i < 50; ++i) c.add(0.75);
  EXPECT_DOUBLE_EQ(c.prob_below(0.1), 0.0);
  EXPECT_DOUBLE_EQ(c.prob_below(0.5), 0.5);
  EXPECT_DOUBLE_EQ(c.prob_below(0.9), 1.0);
  EXPECT_DOUBLE_EQ(c.prob_below(1.0), 1.0);
}

TEST(EmpiricalCdf, OverflowBinHoldsSaturatedValues) {
  Histogram c(1.0, 100);
  c.add(0.5);
  c.add(1.2);  // utilization can never exceed 1, but the CDF must not lose it
  c.add(1.0);
  EXPECT_DOUBLE_EQ(c.prob_below(1.0), 1.0 / 3.0);
}

TEST(EmpiricalCdf, RejectsNaNSamplesAndQueries) {
  Histogram c(1.0, 10);
  c.add(0.55);
  EXPECT_THROW(c.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(c.prob_below(std::nan("")), std::invalid_argument);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.prob_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.prob_below(0.6), 1.0);
  // An empty CDF rejects a NaN query as well.
  EXPECT_THROW(Histogram(1.0, 10).prob_below(std::nan("")), std::invalid_argument);
}

TEST(EmpiricalCdf, EmptyReturnsZero) {
  Histogram c(1.0, 10);
  EXPECT_DOUBLE_EQ(c.prob_below(0.5), 0.0);
}

TEST(EmpiricalCdf, QuantileFindsBoundary) {
  Histogram c(1.0, 100);
  for (int i = 0; i < 100; ++i) c.add(i / 100.0 + 0.001);
  EXPECT_NEAR(c.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(c.quantile(0.98), 0.98, 0.02);
}

TEST(EmpiricalCdf, CumulativeCurveIsMonotone) {
  Histogram c(1.0, 50);
  for (int i = 0; i < 1000; ++i) c.add((i % 100) / 100.0);
  std::vector<double> curve;  // P(X < i/50) at every bin boundary
  for (int i = 0; i <= 50; ++i) curve.push_back(c.prob_below(i / 50.0));
  for (std::size_t i = 1; i < curve.size(); ++i) EXPECT_GE(curve[i], curve[i - 1]);
  EXPECT_DOUBLE_EQ(curve.front(), 0.0);
  EXPECT_DOUBLE_EQ(curve.back(), 1.0);
}

TEST(EmpiricalCdf, RejectsBadBinCount) {
  EXPECT_THROW(Histogram(1.0, 0), std::invalid_argument);
}

TEST(EmpiricalCdf, QuantileClampsOverflowMassToDomain) {
  // Regression: mass in the overflow bin used to report (bins+1)/bins,
  // i.e. a "probability" above 1. It must clamp to the domain edge 1.0.
  Histogram c(1.0, 10);
  for (int i = 0; i < 10; ++i) c.add(1.5);  // all samples saturate
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 1.0);
  c.add(0.05);  // one in-range sample; high quantiles still clamp
  EXPECT_DOUBLE_EQ(c.quantile(0.99), 1.0);
  EXPECT_LE(c.quantile(0.05), 0.1);
}

TEST(EmpiricalCdf, QuantileZeroIsLowerDomainEdge) {
  Histogram c(1.0, 10);
  // Leading empty bins: p == 0 must report the domain's lower edge, not
  // the first occupied bin's upper boundary.
  c.add(0.75);
  c.add(0.85);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.quantile(-0.5), 0.0);
  EXPECT_GT(c.quantile(0.5), 0.0);
}

TEST(Quantiles, HistogramAndCdfAgreeOnSharedUnitData) {
  // The CDF and quantile queries of one unit histogram, against values
  // counted by hand: ten bins of 0.1; one sample saturates into overflow.
  Histogram h(1.0, 10);
  for (double x : {0.05, 0.15, 0.15, 0.35, 0.95, 1.2}) h.add(x);
  EXPECT_DOUBLE_EQ(h.prob_below(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.prob_below(0.1), 1.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(0.2), 3.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(0.3), 3.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(0.4), 4.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(0.9), 4.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(1.0), 5.0 / 6);
  EXPECT_DOUBLE_EQ(h.prob_below(1.5), 5.0 / 6);  // the overflow bin is never "below"
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 0.1);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.2);
  EXPECT_DOUBLE_EQ(h.quantile(0.6), 0.4);
  EXPECT_DOUBLE_EQ(h.quantile(0.8), 1.0);
  // Overflow mass reports the range's upper edge, never beyond it.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(ConfidenceInterval, KnownTValue) {
  RunningStat s;
  // Five samples, sd = 1: halfwidth = t(4, .975) / sqrt(5) = 2.776 / 2.2360.
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  const double sd = s.stddev();
  EXPECT_NEAR(t_confidence_halfwidth(s, 0.95), 2.776 * sd / std::sqrt(5.0), 1e-6);
}

TEST(ConfidenceInterval, FewSamplesGiveZero) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(t_confidence_halfwidth(s), 0.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(t_confidence_halfwidth(s), 0.0);
}

TEST(ConfidenceInterval, LargeSampleUsesNormalApprox) {
  RunningStat s;
  for (int i = 0; i < 1000; ++i) s.add(i % 2 ? 1.0 : -1.0);
  const double hw = t_confidence_halfwidth(s, 0.95);
  EXPECT_NEAR(hw, 1.96 * s.stddev() / std::sqrt(1000.0), 1e-9);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 0), std::invalid_argument);
}

TEST(Histogram, MeanAndCount) {
  Histogram h(10.0, 100);
  h.add(1.0);
  h.add(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, QuantilesOnKnownData) {
  Histogram h(10.0, 1000);
  for (int i = 0; i < 90; ++i) h.add(1.0);
  for (int i = 0; i < 10; ++i) h.add(9.0);
  EXPECT_NEAR(h.quantile(0.5), 1.0, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 1.0, 0.02);
  EXPECT_NEAR(h.quantile(0.95), 9.0, 0.02);
}

TEST(Histogram, OverflowReportsUpperBound) {
  Histogram h(10.0, 100);
  h.add(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.0);  // mean still exact
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a(10.0, 100);
  Histogram b(10.0, 100);
  a.add(2.0);
  b.add(4.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_NEAR(a.quantile(0.99), 4.0, 0.15);
}

TEST(Histogram, MergeRejectsShapeMismatch) {
  Histogram a(10.0, 100);
  Histogram b(10.0, 50);
  Histogram c(20.0, 100);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, RejectsNegativeValues) {
  Histogram h(10.0, 10);
  EXPECT_THROW(h.add(-1.0), std::invalid_argument);
}

TEST(Histogram, RejectsNaNAndKeepsItsState) {
  Histogram h(10.0, 10);
  h.add(2.5);
  EXPECT_THROW(h.add(std::nan("")), std::invalid_argument);
  EXPECT_THROW(h.add(-std::nan("")), std::invalid_argument);
  // The rejected sample left no trace: no count, no NaN in the sum.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.counts()[0], 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  // -0.0 and +inf are still legal samples.
  h.add(-0.0);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[10], 1u);  // overflow bin
}

TEST(BatchMeans, RejectsZeroBatchSize) {
  EXPECT_THROW(BatchMeans(0), std::invalid_argument);
}

TEST(BatchMeans, CompletesBatchesAtBoundary) {
  BatchMeans b(3);
  b.add(1.0);
  b.add(2.0);
  EXPECT_EQ(b.completed_batches(), 0u);
  b.add(3.0);
  EXPECT_EQ(b.completed_batches(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(BatchMeans, PartialBatchExcluded) {
  BatchMeans b(2);
  b.add(1.0);
  b.add(3.0);   // batch mean 2
  b.add(100.0);  // dangling partial batch: must not pollute the mean
  EXPECT_EQ(b.completed_batches(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(BatchMeans, CiShrinksWithMoreBatches) {
  BatchMeans few(10);
  BatchMeans many(10);
  RngStream rng(123);
  for (int i = 0; i < 40; ++i) few.add(rng.uniform(0.0, 1.0));
  RngStream rng2(123);
  for (int i = 0; i < 400; ++i) many.add(rng2.uniform(0.0, 1.0));
  EXPECT_GT(few.ci_halfwidth(), many.ci_halfwidth());
}

TEST(BatchMeans, RelativeHalfwidthIsFractionOfMean) {
  BatchMeans b(1);
  for (double x : {9.0, 10.0, 11.0, 10.0}) b.add(x);
  EXPECT_NEAR(b.relative_halfwidth(), b.ci_halfwidth() / 10.0, 1e-12);
}

TEST(BatchMeans, ConstantSeriesHasZeroHalfwidth) {
  BatchMeans b(5);
  for (int i = 0; i < 50; ++i) b.add(0.7);
  EXPECT_DOUBLE_EQ(b.ci_halfwidth(), 0.0);
  EXPECT_DOUBLE_EQ(b.mean(), 0.7);
}

TEST(Mser5, FlatSeriesNeedsNoTruncation) {
  std::vector<double> flat(200, 0.7);
  EXPECT_EQ(mser5_truncation(flat), 0u);
}

TEST(Mser5, DetectsInitialTransient) {
  // 50 samples of ramp-up, then 450 of noisy steady state.
  RngStream rng(99);
  std::vector<double> series;
  for (int i = 0; i < 50; ++i) series.push_back(static_cast<double>(i) / 50.0);
  for (int i = 0; i < 450; ++i) series.push_back(1.0 + 0.05 * (rng.next_double() - 0.5));
  const std::size_t cut = mser5_truncation(series);
  EXPECT_GE(cut, 40u);
  EXPECT_LE(cut, 70u);
}

TEST(Mser5, TooShortSeriesReturnsZero) {
  EXPECT_EQ(mser5_truncation({1, 2, 3}), 0u);
  EXPECT_EQ(mser5_truncation({}), 0u);
}

TEST(Mser5, TruncationCappedAtHalfTheSeries) {
  // A series that only stabilizes at the very end cannot claim more than
  // half the run as warm-up.
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(static_cast<double>(i));
  EXPECT_LE(mser5_truncation(series), 50u);
}

TEST(MeanCiHelper, ComputesMeanAndHalfwidth) {
  const MeanCi ci = mean_ci({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(ci.mean, 4.0);
  EXPECT_GT(ci.halfwidth, 0.0);
}

}  // namespace
}  // namespace adattl::sim
