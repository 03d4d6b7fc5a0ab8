#include "core/domain_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace adattl::core {

DomainModel::DomainModel(std::vector<double> weights, double class_threshold)
    : weights_(std::move(weights)), gamma_(class_threshold) {
  if (weights_.empty()) throw std::invalid_argument("DomainModel: no domains");
  if (!(gamma_ > 0.0 && gamma_ <= 1.0)) {
    throw std::invalid_argument("DomainModel: class threshold must lie in (0, 1]");
  }
  recompute();
}

void DomainModel::update_weights(std::vector<double> weights) {
  if (weights.size() != weights_.size()) {
    throw std::invalid_argument("DomainModel: weight vector size changed");
  }
  weights_ = std::move(weights);
  recompute();
  for (const auto& cb : listeners_) cb();
}

void DomainModel::recompute() {
  total_ = 0.0;
  max_ = 0.0;
  for (double w : weights_) {
    if (w < 0.0 || !std::isfinite(w)) {
      throw std::invalid_argument("DomainModel: weights must be finite and >= 0");
    }
    total_ += w;
    max_ = std::max(max_, w);
  }
  if (total_ <= 0.0) throw std::invalid_argument("DomainModel: at least one weight must be > 0");
}

double DomainModel::share(DomainId d) const {
  return weights_.at(static_cast<std::size_t>(d)) / total_;
}

double DomainModel::inverse_rel_weight(DomainId d) const {
  const double w = weights_.at(static_cast<std::size_t>(d));
  // Domains with (near-)zero observed load get the largest known factor so
  // they receive the longest TTLs rather than a division blow-up.
  double min_pos = max_;
  for (double v : weights_) {
    if (v > 0.0) min_pos = std::min(min_pos, v);
  }
  return max_ / std::max(w, min_pos);
}

bool DomainModel::is_hot(DomainId d) const { return share(d) > gamma_; }

int DomainModel::hot_count() const {
  int n = 0;
  for (int d = 0; d < num_domains(); ++d) {
    if (is_hot(d)) ++n;
  }
  return n;
}

std::vector<int> DomainModel::partition(int num_classes) const {
  const int k = num_domains();
  std::vector<int> cls(static_cast<std::size_t>(k), 0);

  if (num_classes == 1) return cls;

  if (num_classes == 2) {
    for (int d = 0; d < k; ++d) cls[static_cast<std::size_t>(d)] = is_hot(d) ? 0 : 1;
    return cls;
  }

  if (num_classes == kPerDomainClasses || num_classes >= k) {
    // One class per domain, hottest first; ties broken by domain id so the
    // mapping is deterministic.
    std::vector<int> order(static_cast<std::size_t>(k));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const double wa = weight(a);
      const double wb = weight(b);
      if (wa != wb) return wa > wb;
      return a < b;
    });
    for (int rank = 0; rank < k; ++rank) {
      cls[static_cast<std::size_t>(order[static_cast<std::size_t>(rank)])] = rank;
    }
    return cls;
  }

  if (num_classes < 1) throw std::invalid_argument("DomainModel: bad class count");

  // Log-spaced buckets between the largest and smallest positive weight.
  double min_pos = max_;
  for (double v : weights_) {
    if (v > 0.0) min_pos = std::min(min_pos, v);
  }
  const double span = std::log(max_ / min_pos);
  for (int d = 0; d < k; ++d) {
    const double w = std::max(weight(d), min_pos);
    int c;
    if (span <= 0.0) {
      c = 0;  // all weights equal
    } else {
      c = static_cast<int>(std::log(max_ / w) / span * num_classes);
      c = std::clamp(c, 0, num_classes - 1);
    }
    cls[static_cast<std::size_t>(d)] = c;
  }
  return cls;
}

std::vector<double> DomainModel::class_mean_weights(int num_classes) const {
  const std::vector<int> cls = partition(num_classes);
  const int n = 1 + *std::max_element(cls.begin(), cls.end());
  std::vector<double> sum(static_cast<std::size_t>(n), 0.0);
  std::vector<int> cnt(static_cast<std::size_t>(n), 0);
  for (int d = 0; d < num_domains(); ++d) {
    sum[static_cast<std::size_t>(cls[static_cast<std::size_t>(d)])] += weight(d);
    cnt[static_cast<std::size_t>(cls[static_cast<std::size_t>(d)])]++;
  }
  for (std::size_t c = 0; c < sum.size(); ++c) {
    if (cnt[c] > 0) sum[c] /= cnt[c];
  }
  // Empty buckets inherit a neighbour's mean so TTL factors stay monotone
  // and finite. Leading empties (the γ-threshold "hot" class when no
  // domain's share clears γ) take the hottest non-empty bucket's mean —
  // the split degenerates to one class instead of reporting a zero
  // "hottest" mean that would blow up every TTL factor (found by the
  // proptest_ttl_fairness randomized suite). Trailing empties (possible
  // with log-spaced classes) inherit the nearest hotter bucket as before.
  std::size_t first = 0;
  while (first < sum.size() && cnt[first] == 0) ++first;
  for (std::size_t c = 0; c < first; ++c) sum[c] = sum[first];
  for (std::size_t c = first + 1; c < sum.size(); ++c) {
    if (cnt[c] == 0) sum[c] = sum[c - 1];
  }
  return sum;
}

}  // namespace adattl::core
