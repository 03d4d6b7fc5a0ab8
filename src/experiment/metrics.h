#pragma once

#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace adattl::experiment {

/// Collects the paper's headline metric: the distribution of the *maximum*
/// utilization across the servers, sampled at every monitor tick after the
/// warm-up. The CDF value at u is the fraction of time all servers stayed
/// below utilization u — the "cumulative frequency of Max Utilization" of
/// Figures 1–2; Prob(maxUtil < 0.98) is the sensitivity-figure metric.
class MaxUtilizationTracker {
 public:
  /// `batch_ticks` groups consecutive samples for the within-run batch-
  /// means confidence interval (75 ticks x 8 s = 10-minute batches).
  MaxUtilizationTracker(int num_servers, sim::SimTime warmup_end, int cdf_bins = 500,
                        std::size_t batch_ticks = 75);

  /// Fed once per monitor tick by the run driver. Samples with
  /// now < warmup_end are discarded; the sample at exactly warmup_end is
  /// kept (the measured period is closed on the left — the convention for
  /// all collectors).
  void observe(sim::SimTime now, const std::vector<double>& utilizations);

  /// The max-utilization distribution over [0, 1); saturated ticks land in
  /// the overflow bin.
  const sim::Histogram& cdf() const { return cdf_; }
  double prob_below(double u) const { return cdf_.prob_below(u); }

  /// Per-server mean utilization over the measured period.
  std::vector<double> mean_utilizations() const;
  /// Mean of the per-tick max utilization.
  double mean_max_utilization() const { return max_stat_.mean(); }

  std::uint64_t samples() const { return cdf_.count(); }

  /// Within-run batch-means view of the max-utilization series; use
  /// relative_halfwidth() to reproduce the paper's "95% CI within 4% of
  /// the mean" check from one run.
  const sim::BatchMeans& batch_means() const { return batches_; }

 private:
  sim::SimTime warmup_end_;
  sim::Histogram cdf_;
  sim::RunningStat max_stat_;
  sim::BatchMeans batches_;
  std::vector<sim::RunningStat> per_server_;
};

}  // namespace adattl::experiment
