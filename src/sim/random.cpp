#include "sim/random.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace adattl::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

RngStream RngStream::split() {
  // Children are seeded from the parent's state plus a per-parent counter,
  // not from the output sequence, so splitting does not advance this stream.
  std::uint64_t x = s_[0] ^ rotl(s_[2], 17) ^ (0xd1342543de82ef95ULL * ++split_salt_);
  return RngStream(splitmix64(x));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("uniform: lo > hi");
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);  // avoid log(0)
  return -mean * std::log(u);
}

double Rng::erlang(int k, double mean_total) {
  if (k <= 0) throw std::invalid_argument("erlang: k must be >= 1");
  const double stage_mean = mean_total / k;
  double sum = 0.0;
  for (int i = 0; i < k; ++i) sum += exponential(stage_mean);
  return sum;
}

int Rng::geometric_min1(double mean) {
  if (mean < 1.0) throw std::invalid_argument("geometric_min1: mean must be >= 1");
  if (mean == 1.0) return 1;
  // X = 1 + floor(log(U) / log(1 - p)) with success probability p = 1/mean
  // gives E[X] = mean and support {1, 2, ...}.
  const double p = 1.0 / mean;
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  const double x = 1.0 + std::floor(std::log(u) / std::log1p(-p));
  return static_cast<int>(std::min(x, 1e9));
}

ZipfDistribution::ZipfDistribution(int n, double theta) : theta_(theta) {
  if (n <= 0) throw std::invalid_argument("ZipfDistribution: n must be >= 1");
  pmf_.resize(static_cast<std::size_t>(n));
  double norm = 0.0;
  for (int i = 1; i <= n; ++i) norm += 1.0 / std::pow(static_cast<double>(i), theta);
  cdf_.resize(pmf_.size());
  double acc = 0.0;
  for (int i = 1; i <= n; ++i) {
    const double p = (1.0 / std::pow(static_cast<double>(i), theta)) / norm;
    pmf_[static_cast<std::size_t>(i - 1)] = p;
    acc += p;
    cdf_[static_cast<std::size_t>(i - 1)] = acc;
  }
  cdf_.back() = 1.0;  // guard against rounding drift
}

int ZipfDistribution::sample(RngStream& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(it - cdf_.begin()) + 1;
}

std::vector<int> apportion_largest_remainder(int total, const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("apportion: no weights");
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (sum <= 0) throw std::invalid_argument("apportion: weights must sum > 0");

  std::vector<int> out(weights.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(weights.size());
  int assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = total * weights[i] / sum;
    out[i] = static_cast<int>(exact);
    assigned += out[i];
    remainders.emplace_back(exact - out[i], i);
  }
  // Hand the leftover units to the largest fractional remainders; ties go
  // to the lower index for determinism.
  std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (int k = 0; k < total - assigned; ++k) out[remainders[static_cast<std::size_t>(k)].second]++;
  return out;
}

}  // namespace adattl::sim
