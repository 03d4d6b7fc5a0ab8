#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace adattl::sim {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double upper, int bins) : upper_(upper) {
  if (upper <= 0) throw std::invalid_argument("Histogram: upper bound must be > 0");
  if (bins <= 0) throw std::invalid_argument("Histogram: bins must be >= 1");
  counts_.assign(static_cast<std::size_t>(bins) + 1, 0);
}

void Histogram::add(double x) {
  // Negated so NaN fails too: cast to a bin index it is undefined behaviour.
  if (!(x >= 0)) throw std::invalid_argument("Histogram: negative or NaN value");
  const int bins = this->bins();
  const std::size_t idx = (x >= upper_)
                              ? static_cast<std::size_t>(bins)
                              : static_cast<std::size_t>(x / upper_ * bins);
  counts_[idx]++;
  ++n_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  if (other.upper_ != upper_ || other.counts_.size() != counts_.size()) {
    throw std::invalid_argument("Histogram: merge shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
  sum_ += other.sum_;
}

double Histogram::quantile(double p) const {
  if (n_ == 0) return 0.0;
  // p == 0 asks for the infimum of the support: the range's lower edge,
  // not the first (possibly empty) bin's upper edge.
  if (p <= 0.0) return 0.0;
  const int bins = this->bins();
  const auto target = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n_)));
  std::uint64_t acc = 0;
  for (int i = 0; i <= bins; ++i) {
    acc += counts_[static_cast<std::size_t>(i)];
    if (acc >= target) {
      return (i == bins) ? upper_ : upper_ * static_cast<double>(i + 1) / bins;
    }
  }
  return upper_;
}

double Histogram::prob_below(double x) const {
  if (std::isnan(x)) throw std::invalid_argument("Histogram: NaN query");
  if (n_ == 0 || x <= 0.0) return 0.0;
  const int bins = this->bins();
  const std::size_t upto = (x >= upper_) ? static_cast<std::size_t>(bins)
                                         : static_cast<std::size_t>(x / upper_ * bins);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < upto; ++i) below += counts_[i];
  return static_cast<double>(below) / static_cast<double>(n_);
}

BatchMeans::BatchMeans(std::size_t batch_size) : batch_size_(batch_size) {
  if (batch_size == 0) throw std::invalid_argument("BatchMeans: batch size must be >= 1");
}

void BatchMeans::add(double x) {
  current_sum_ += x;
  if (++in_current_ == batch_size_) {
    batches_.add(current_sum_ / static_cast<double>(batch_size_));
    current_sum_ = 0.0;
    in_current_ = 0;
  }
}

double BatchMeans::ci_halfwidth(double confidence) const {
  return t_confidence_halfwidth(batches_, confidence);
}

double BatchMeans::relative_halfwidth(double confidence) const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return ci_halfwidth(confidence) / std::abs(m);
}

std::size_t mser5_truncation(const std::vector<double>& series) {
  constexpr std::size_t kBatch = 5;
  const std::size_t num_batches = series.size() / kBatch;
  if (num_batches < 4) return 0;  // too short to judge: truncate nothing

  std::vector<double> batches(num_batches);
  for (std::size_t b = 0; b < num_batches; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < kBatch; ++i) sum += series[b * kBatch + i];
    batches[b] = sum / kBatch;
  }

  // Suffix sums let every candidate truncation be evaluated in O(1).
  std::vector<double> suffix_sum(num_batches + 1, 0.0);
  std::vector<double> suffix_sq(num_batches + 1, 0.0);
  for (std::size_t b = num_batches; b-- > 0;) {
    suffix_sum[b] = suffix_sum[b + 1] + batches[b];
    suffix_sq[b] = suffix_sq[b + 1] + batches[b] * batches[b];
  }

  std::size_t best_d = 0;
  double best_mser = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d <= num_batches / 2; ++d) {
    const double n = static_cast<double>(num_batches - d);
    const double mean = suffix_sum[d] / n;
    double var = std::max(0.0, suffix_sq[d] / n - mean * mean);
    // The sum-of-squares formula leaves O(eps·mean^2) residue on constant
    // data; flush it to zero so a flat series truncates nothing.
    if (var < 1e-12 * mean * mean) var = 0.0;
    const double mser = var / n;  // proportional to (SE)^2; same argmin
    // Require a real (relative) improvement so floating-point noise on a
    // flat series cannot push the truncation point past d = 0.
    if (mser < best_mser * (1.0 - 1e-6)) {
      best_mser = mser;
      best_d = d;
    }
  }
  return best_d * kBatch;
}

namespace {

/// Two-sided Student-t critical value, via a small table for low degrees of
/// freedom and the normal approximation beyond it. Accurate to ~1% which is
/// ample for reporting replication CIs.
double t_critical(std::uint64_t dof, double confidence) {
  static constexpr double t95[] = {0,     12.706, 4.303, 3.182, 2.776, 2.571,
                                   2.447, 2.365,  2.306, 2.262, 2.228, 2.201,
                                   2.179, 2.160,  2.145, 2.131, 2.120, 2.110,
                                   2.101, 2.093,  2.086, 2.080, 2.074, 2.069,
                                   2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  static constexpr double t99[] = {0,     63.657, 9.925, 5.841, 4.604, 4.032,
                                   3.707, 3.499,  3.355, 3.250, 3.169, 3.106,
                                   3.055, 3.012,  2.977, 2.947, 2.921, 2.898,
                                   2.878, 2.861,  2.845, 2.831, 2.819, 2.807,
                                   2.797, 2.787,  2.779, 2.771, 2.763, 2.756, 2.750};
  const bool is99 = confidence >= 0.985;
  const double* table = is99 ? t99 : t95;
  if (dof >= 1 && dof <= 30) return table[dof];
  return is99 ? 2.576 : 1.960;
}

}  // namespace

double t_confidence_halfwidth(const RunningStat& stat, double confidence) {
  if (stat.count() < 2) return 0.0;
  const double se = stat.stddev() / std::sqrt(static_cast<double>(stat.count()));
  return t_critical(stat.count() - 1, confidence) * se;
}

MeanCi mean_ci(const std::vector<double>& xs, double confidence) {
  RunningStat s;
  for (double x : xs) s.add(x);
  return MeanCi{s.mean(), t_confidence_halfwidth(s, confidence)};
}

}  // namespace adattl::sim
