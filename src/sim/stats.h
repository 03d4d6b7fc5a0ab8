#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace adattl::sim {

/// Running mean/variance accumulator (Welford's algorithm — numerically
/// stable for millions of samples).
class RunningStat {
 public:
  void add(double x);

  /// Folds another accumulator in, as if its samples had been add()ed here
  /// (Chan et al. pairwise combination — the parallel-merge form of
  /// Welford). Used to combine per-shard statistics deterministically.
  void merge(const RunningStat& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-range linear histogram with an overflow bin, supporting merging
/// and quantile and CDF queries. Used for response-time percentiles
/// (p50/p95/p99), where a RunningStat's mean hides the overload tail, and,
/// over [0, 1), for the paper's "cumulative frequency of maximum server
/// utilization" curves.
class Histogram {
 public:
  /// Range [0, upper); values >= upper land in the overflow bin and are
  /// reported as `upper` by quantile().
  Histogram(double upper, int bins);

  /// Records one sample; a negative or NaN sample throws
  /// std::invalid_argument.
  void add(double x);

  /// Adds another histogram's counts. Both must have identical shape.
  void merge(const Histogram& other);

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// Per-bin counts; the last slot is the overflow bin.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// Smallest bin upper boundary q with P(X <= q) >= p; `upper` if the
  /// quantile falls in the overflow bin. 0 when empty or for p <= 0 (the
  /// lower edge of the range).
  double quantile(double p) const;

  /// P(X < x), counted over the whole bins below x: exact at bin
  /// boundaries, conservative in between. Values >= `upper` sit in the
  /// overflow bin, so P(X < upper) stays exact. 0 when empty; a NaN query
  /// throws std::invalid_argument.
  double prob_below(double x) const;

  double upper() const { return upper_; }
  int bins() const { return static_cast<int>(counts_.size()) - 1; }

 private:
  double upper_;
  std::vector<std::uint64_t> counts_;  // last slot = overflow
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Batch-means confidence intervals for a single steady-state run.
///
/// Correlated per-tick samples (like the 8-second max-utilization series)
/// violate the independence assumption of a plain t-interval; grouping
/// consecutive samples into large batches and treating the batch means as
/// (approximately) independent is the classical fix. The paper reports
/// "the 95% confidence interval was observed to be within 4% of the mean"
/// — this class reproduces that check within one run.
class BatchMeans {
 public:
  /// `batch_size`: samples per batch (>= 1). Trailing partial batches are
  /// excluded from the interval.
  explicit BatchMeans(std::size_t batch_size);

  void add(double x);

  std::size_t batch_size() const { return batch_size_; }
  std::size_t completed_batches() const { return batches_.count(); }

  /// Grand mean over completed batches (0 if none completed yet).
  double mean() const { return batches_.mean(); }

  /// Half-width of the two-sided CI over the batch means; 0 with fewer
  /// than two completed batches.
  double ci_halfwidth(double confidence = 0.95) const;

  /// ci_halfwidth / |mean|: the paper's "within 4% of the mean" figure.
  /// Returns 0 when the mean is 0.
  double relative_halfwidth(double confidence = 0.95) const;

 private:
  std::size_t batch_size_;
  std::size_t in_current_ = 0;
  double current_sum_ = 0.0;
  RunningStat batches_;
};

/// MSER-5 warm-up truncation point (White/Spratt): group the series into
/// batches of 5, then pick the truncation index d (in batches) minimizing
/// the standard error of the remaining batch means,
///   MSER(d) = stddev(batches[d..]) / sqrt(n - d),
/// searching the first half of the series (a truncation point in the
/// second half means the run is too short to judge). Returns the warm-up
/// length in *samples*. Used to validate the configured warm-up against
/// what the max-utilization series itself suggests.
std::size_t mser5_truncation(const std::vector<double>& series);

/// Half-width of the two-sided Student-t confidence interval for the mean
/// of `stat` at the given confidence level (e.g. 0.95). Returns 0 for
/// fewer than two samples.
double t_confidence_halfwidth(const RunningStat& stat, double confidence = 0.95);

/// Mean and 95% CI half-width of a small vector of replication results.
struct MeanCi {
  double mean = 0.0;
  double halfwidth = 0.0;
};
MeanCi mean_ci(const std::vector<double>& xs, double confidence = 0.95);

}  // namespace adattl::sim
