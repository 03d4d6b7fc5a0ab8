#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace adattl::sim {

/// A xoshiro256++ generator: 32 bytes of state and every draw, but no
/// splitting. A client holds one in its one-line record (clients never
/// split their stream); everything else draws through an RngStream.
class Rng {
 public:
  /// Seeds the generator; the raw seed is expanded through splitmix64 so
  /// that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given mean (> 0).
  double exponential(double mean);

  /// Erlang(k, mean_total) variate: sum of k exponentials whose means add
  /// up to `mean_total`. Models a burst of k back-to-back hit services.
  double erlang(int k, double mean_total);

  /// Geometric variate on {1, 2, ...} with the given mean (>= 1): the
  /// discrete analogue of the paper's "exponentially distributed" page
  /// count per session.
  int geometric_min1(double mean);

  /// True with probability p (clamped to [0, 1]); p >= 1 draws no variate.
  /// Inline, so the deterministic round robin's p = 1 costs no call.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

 protected:
  std::uint64_t s_[4];
};
static_assert(sizeof(Rng) == 32, "a generator is its 32-byte xoshiro256++ state");

/// Deterministic, splittable pseudo-random stream: an Rng plus the counter
/// that numbers its children.
///
/// Every stochastic model component owns its own stream derived from the
/// run seed via split(), so adding or removing one component never
/// perturbs the variates another component draws — a property the
/// paired-comparison experiments rely on.
class RngStream : public Rng {
 public:
  explicit RngStream(std::uint64_t seed) : Rng(seed) {}

  /// Derives an independent child stream. Successive calls derive distinct
  /// children.
  RngStream split();

 private:
  std::uint64_t split_salt_ = 0;
};

/// Zipf distribution over ranks {1, ..., n}: P(rank = i) ∝ 1 / i^theta.
///
/// theta = 1 is the paper's "pure Zipf" client-to-domain skew. Sampling is
/// O(log n) by binary search over the cumulative weights; pmf() and
/// weights are exposed for the deterministic allocation and the TTL
/// calibration math.
class ZipfDistribution {
 public:
  ZipfDistribution(int n, double theta = 1.0);

  int n() const { return static_cast<int>(pmf_.size()); }
  double theta() const { return theta_; }

  /// P(rank = i), 1-based rank.
  double pmf(int rank) const { return pmf_.at(static_cast<std::size_t>(rank - 1)); }

  /// All probabilities, index 0 == rank 1.
  const std::vector<double>& probabilities() const { return pmf_; }

  /// Draws a 1-based rank.
  int sample(RngStream& rng) const;

 private:
  double theta_;
  std::vector<double> pmf_;
  std::vector<double> cdf_;
};

/// Splits `total` items over weighted bins by the largest-remainder method;
/// the result sums exactly to `total` and is deterministic. Used to
/// partition the 500 clients over the K domains following Zipf weights.
std::vector<int> apportion_largest_remainder(int total, const std::vector<double>& weights);

}  // namespace adattl::sim
