#include "core/ttl_policy.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::core {

ConstantTtlPolicy::ConstantTtlPolicy(double ttl_sec) : value_(ttl_sec) {
  if (ttl_sec <= 0) throw std::invalid_argument("ConstantTtlPolicy: TTL must be > 0");
}

AdaptiveTtlPolicy::AdaptiveTtlPolicy(const DomainModel& domains, std::vector<double> capacities,
                                     int num_classes, bool server_term,
                                     std::vector<double> selection_shares, double reference_ttl,
                                     bool calibrate)
    : domains_(domains),
      num_classes_(num_classes),
      server_term_(server_term),
      shares_(std::move(selection_shares)),
      reference_ttl_(reference_ttl),
      calibrate_(calibrate) {
  if (capacities.empty()) throw std::invalid_argument("AdaptiveTtlPolicy: need >= 1 server");
  // A zero capacity would put c_min at 0 and drive every g_s = C_s/C_N to
  // infinity; a negative one flips TTL signs. Reject both outright.
  for (double c : capacities) {
    if (c <= 0) throw std::invalid_argument("AdaptiveTtlPolicy: capacities must be > 0");
  }
  if (shares_.size() != capacities.size()) {
    throw std::invalid_argument("AdaptiveTtlPolicy: shares/capacity size mismatch");
  }
  if (reference_ttl <= 0) throw std::invalid_argument("AdaptiveTtlPolicy: reference TTL must be > 0");
  if (num_classes != kPerDomainClasses && num_classes < 1) {
    throw std::invalid_argument("AdaptiveTtlPolicy: bad class count");
  }

  // g_s = C_s / C_N: the weakest server anchors the minimum TTL.
  const double c_min = *std::min_element(capacities.begin(), capacities.end());
  server_factor_.resize(capacities.size());
  for (std::size_t s = 0; s < capacities.size(); ++s) {
    server_factor_[s] = server_term_ ? capacities[s] / c_min : 1.0;
  }
  recalibrate();
}

void AdaptiveTtlPolicy::recalibrate() {
  const int k = domains_.num_domains();
  const std::vector<int> cls = domains_.partition(num_classes_);
  const std::vector<double> mean_w = domains_.class_mean_weights(num_classes_);

  const double hottest = mean_w.front();
  domain_factor_.assign(static_cast<std::size_t>(k), 1.0);
  for (int d = 0; d < k; ++d) {
    const double w = mean_w[static_cast<std::size_t>(cls[static_cast<std::size_t>(d)])];
    domain_factor_[static_cast<std::size_t>(d)] = hottest / std::max(w, 1e-12);
  }

  mean_server_factor_ = 0.0;
  for (std::size_t s = 0; s < server_factor_.size(); ++s) {
    mean_server_factor_ += shares_[s] * server_factor_[s];
  }

  if (calibrate_) {
    double inv_sum = 0.0;
    for (double f : domain_factor_) inv_sum += 1.0 / f;
    base_ = reference_ttl_ * inv_sum / (k * mean_server_factor_);
  } else {
    base_ = reference_ttl_;
  }
}

double AdaptiveTtlPolicy::ttl(web::DomainId domain, web::ServerId server) const {
  return base_ * domain_factor_.at(static_cast<std::size_t>(domain)) *
         server_factor_.at(static_cast<std::size_t>(server));
}

double AdaptiveTtlPolicy::min_ttl() const { return base_; }

double AdaptiveTtlPolicy::expected_address_rate() const {
  double rate = 0.0;
  for (double f : domain_factor_) rate += 1.0 / (base_ * f * mean_server_factor_);
  return rate;
}

}  // namespace adattl::core
