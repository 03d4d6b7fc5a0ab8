#include "core/dal_policy.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::core {

DalPolicy::DalPolicy(sim::Simulator& sim, const DomainModel& domains,
                     std::vector<double> capacities)
    : sim_(sim),
      domains_(domains),
      capacities_(std::move(capacities)),
      accumulated_(capacities_.size(), 0.0) {
  if (capacities_.empty()) throw std::invalid_argument("DAL: need >= 1 server");
  for (double c : capacities_) {
    if (c <= 0) throw std::invalid_argument("DAL: capacities must be > 0");
  }
}

web::ServerId DalPolicy::select(const DecisionContext& ctx) {
  const std::vector<bool>& eligible = *ctx.eligible;
  int best = -1;
  double best_norm = 0.0;
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (!eligible[i]) continue;
    const double norm = accumulated_[i] / capacities_[i];
    if (best < 0 || norm < best_norm) {
      best = static_cast<int>(i);
      best_norm = norm;
    }
  }
  if (best < 0) throw std::logic_error("DAL: no eligible server");
  return best;
}

void DalPolicy::on_assign(web::DomainId domain, web::ServerId server, double ttl) {
  const double load = domains_.share(domain);
  accumulated_[static_cast<std::size_t>(server)] += load;
  // The mapping stops attracting *new* sessions when its TTL expires;
  // decay the accumulated contribution then.
  sim_.after(std::max(ttl, 0.0), [this, server, load] {
    accumulated_[static_cast<std::size_t>(server)] -= load;
  });
}

std::vector<double> DalPolicy::stationary_shares() const {
  // Load-normalized assignment converges to capacity-proportional shares.
  double sum = 0.0;
  for (double c : capacities_) sum += c;
  std::vector<double> shares(capacities_.size());
  for (std::size_t i = 0; i < capacities_.size(); ++i) shares[i] = capacities_[i] / sum;
  return shares;
}

}  // namespace adattl::core
