#include "core/mrl_policy.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::core {

MrlPolicy::MrlPolicy(sim::Simulator& sim, const DomainModel& domains,
                     std::vector<double> capacities)
    : sim_(sim),
      domains_(domains),
      capacities_(std::move(capacities)),
      rate_sum_(capacities_.size(), 0.0),
      rate_expiry_sum_(capacities_.size(), 0.0) {
  if (capacities_.empty()) throw std::invalid_argument("MRL: need >= 1 server");
  for (double c : capacities_) {
    if (c <= 0) throw std::invalid_argument("MRL: capacities must be > 0");
  }
}

double MrlPolicy::residual(web::ServerId s) const {
  const auto i = static_cast<std::size_t>(s);
  // Numerical cancellation can leave a tiny negative residue after expiry.
  return std::max(0.0, rate_expiry_sum_[i] - sim_.now() * rate_sum_[i]);
}

web::ServerId MrlPolicy::select(const DecisionContext& ctx) {
  const std::vector<bool>& eligible = *ctx.eligible;
  int best = -1;
  double best_norm = 0.0;
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (!eligible[i]) continue;
    const double norm = residual(static_cast<int>(i)) / capacities_[i];
    if (best < 0 || norm < best_norm) {
      best = static_cast<int>(i);
      best_norm = norm;
    }
  }
  if (best < 0) throw std::logic_error("MRL: no eligible server");
  return best;
}

void MrlPolicy::on_assign(web::DomainId domain, web::ServerId server, double ttl) {
  const double rate = domains_.share(domain);
  const double expiry = sim_.now() + std::max(ttl, 0.0);
  const auto i = static_cast<std::size_t>(server);
  rate_sum_[i] += rate;
  rate_expiry_sum_[i] += rate * expiry;
  sim_.at(expiry, [this, i, rate, expiry] {
    rate_sum_[i] -= rate;
    rate_expiry_sum_[i] -= rate * expiry;
  });
}

std::vector<double> MrlPolicy::stationary_shares() const {
  double sum = 0.0;
  for (double c : capacities_) sum += c;
  std::vector<double> shares(capacities_.size());
  for (std::size_t i = 0; i < capacities_.size(); ++i) shares[i] = capacities_[i] / sum;
  return shares;
}

}  // namespace adattl::core
