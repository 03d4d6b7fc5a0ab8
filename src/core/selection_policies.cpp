#include "core/selection_policies.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::core {

// ---------------------------------------------------------------- RR family

RoundRobinPolicy::RoundRobinPolicy(std::vector<double> alpha, DomainModel& domains, int tiers,
                                   sim::RngStream rng)
    : alpha_(std::move(alpha)), domains_(domains), tiers_(tiers), rng_(rng) {
  if (alpha_.empty()) throw std::invalid_argument("RR: need >= 1 server");
  for (double a : alpha_) {
    if (!(a > 0.0 && a <= 1.0)) throw std::invalid_argument("RR: alphas must lie in (0, 1]");
  }
  if (tiers != kPerDomainClasses && tiers < 1) throw std::invalid_argument("RR: bad tier count");
  reclassify();
  domains.subscribe([this] { reclassify(); });
}

void RoundRobinPolicy::reclassify() {
  tier_ = domains_.partition(tiers_);
  const auto classes = static_cast<std::size_t>(*std::max_element(tier_.begin(), tier_.end())) + 1;
  if (classes > last_.size()) last_.resize(classes, -1);
}

web::ServerId RoundRobinPolicy::select(const DecisionContext& ctx) {
  int& last = last_[static_cast<std::size_t>(tier_.at(static_cast<std::size_t>(ctx.domain)))];
  const std::vector<bool>& eligible = *ctx.eligible;
  const int n = static_cast<int>(alpha_.size());
  // Walk cyclically from the class's last pick. Every α is positive, so
  // the walk accepts a server with probability one; after 64 cycles, a
  // defensive backstop, it takes the next eligible server. The eligibility
  // mask always has a true entry (AlarmRegistry invariant).
  int cand = last;
  for (int step = 0; step < 65 * n; ++step) {
    if (++cand == n) cand = 0;
    const auto i = static_cast<std::size_t>(cand);
    if (eligible[i] && (step >= 64 * n || rng_.bernoulli(alpha_[i]))) return last = cand;
  }
  throw std::logic_error("RR: no eligible server (AlarmRegistry invariant broken)");
}

std::vector<double> RoundRobinPolicy::stationary_shares() const {
  // One full cycle of a pointer visits every server once and accepts S_i
  // with probability α_i, so long-run shares are α_i / Σα.
  double sum = 0.0;
  for (double a : alpha_) sum += a;
  std::vector<double> shares(alpha_.size());
  for (std::size_t i = 0; i < alpha_.size(); ++i) shares[i] = alpha_[i] / sum;
  return shares;
}

// ---------------------------------------------------------------- WRR

WeightedRoundRobinPolicy::WeightedRoundRobinPolicy(std::vector<double> weights)
    : weights_(std::move(weights)), credit_(weights_.size(), 0.0) {
  if (weights_.empty()) throw std::invalid_argument("WRR: need >= 1 server");
  for (double w : weights_) {
    if (w <= 0) throw std::invalid_argument("WRR: weights must be > 0");
    total_weight_ += w;
  }
}

web::ServerId WeightedRoundRobinPolicy::select(const DecisionContext& ctx) {
  const std::vector<bool>& eligible = *ctx.eligible;
  int best = -1;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    credit_[i] += weights_[i];
    if (!eligible[i]) continue;
    if (best < 0 || credit_[i] > credit_[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) throw std::logic_error("WRR: no eligible server");
  credit_[static_cast<std::size_t>(best)] -= total_weight_;
  return best;
}

std::vector<double> WeightedRoundRobinPolicy::stationary_shares() const {
  std::vector<double> shares(weights_.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) shares[i] = weights_[i] / total_weight_;
  return shares;
}

}  // namespace adattl::core
