#pragma once

#include <functional>
#include <vector>

#include "web/types.h"

namespace adattl::core {

using web::DomainId;
using web::ServerId;

/// Sentinel class count meaning "one class per domain" (the paper's
/// TTL/K and TTL/S_K granularity).
inline constexpr int kPerDomainClasses = -1;

/// The DNS scheduler's view of the connected domains: their hidden load
/// weights (estimated request rates, invisible to the DNS except through
/// server feedback) and the class partitions derived from them.
///
/// Weights are on an arbitrary positive scale; all algorithms consume
/// ratios (shares, relative-to-max factors), so the estimator can feed
/// hits-per-interval counts directly.
class DomainModel {
 public:
  /// `class_threshold` is the paper's γ ∈ (0, 1]: a domain is "hot" when
  /// its share of the total load exceeds γ (default 1/K, set by the
  /// caller). γ = 1, the default of a one-domain site, makes no domain hot.
  DomainModel(std::vector<double> weights, double class_threshold);

  int num_domains() const { return static_cast<int>(weights_.size()); }
  double class_threshold() const { return gamma_; }

  /// Replaces the weight vector (estimator update) and notifies listeners.
  void update_weights(std::vector<double> weights);

  const std::vector<double>& weights() const { return weights_; }
  double weight(DomainId d) const { return weights_.at(static_cast<std::size_t>(d)); }

  /// Domain's share of the total load, λ_d / Σλ.
  double share(DomainId d) const;

  /// ω_max / ω_d >= 1: the factor by which the busiest domain outweighs d.
  /// This is the domain term of the TTL/K formula.
  double inverse_rel_weight(DomainId d) const;

  /// Hot/normal partition (share > γ). Used by RR2/PRR2 and TTL/2.
  bool is_hot(DomainId d) const;
  int hot_count() const;

  /// Partition into `num_classes` classes ordered hottest-first (class 0 is
  /// the hottest). Rules:
  ///  * 1 — everything in class 0;
  ///  * 2 — the paper's γ-threshold hot/normal split;
  ///  * kPerDomainClasses — one class per domain, by descending weight;
  ///  * other i — log-spaced weight buckets between ω_max and ω_min
  ///    (generalizes the hot/normal idea; used by the class-count ablation).
  std::vector<int> partition(int num_classes) const;

  /// Mean weight of each class of the given partition, hottest-first.
  std::vector<double> class_mean_weights(int num_classes) const;

  /// Registers a callback fired after every update_weights().
  void subscribe(std::function<void()> cb) { listeners_.push_back(std::move(cb)); }

 private:
  void recompute();

  std::vector<double> weights_;
  double gamma_;
  double total_ = 0.0;
  double max_ = 0.0;
  std::vector<std::function<void()>> listeners_;
};

}  // namespace adattl::core
