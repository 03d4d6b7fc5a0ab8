#pragma once

#include <vector>

#include "core/domain_model.h"
#include "core/selection_policy.h"
#include "sim/simulator.h"

namespace adattl::core {

/// Capacity-normalized "minimum residual load" baseline (MRL, the second
/// homogeneous-era scheme from Colajanni/Yu/Dias ICDCS'97 that the paper
/// cites alongside DAL).
///
/// Where DAL charges a mapping's whole hidden load for its entire TTL,
/// MRL tracks the *residual* load: the expected hits a mapping will still
/// inject before it expires, which decays linearly from λ_d·TTL to zero.
/// The next request goes to the server with the minimum residual per unit
/// capacity.
///
/// Implementation note: the residual of server i at time t is
///   Σ_m λ_m · (expiry_m − t)   over its live mappings m,
/// which we maintain in O(1) per query as (Σ λ_m·expiry_m) − t·(Σ λ_m),
/// with per-mapping expiry events retiring the two partial sums.
class MrlPolicy : public SelectionPolicy {
 public:
  MrlPolicy(sim::Simulator& sim, const DomainModel& domains, std::vector<double> capacities);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;
  void on_assign(web::DomainId domain, web::ServerId server, double ttl) override;
  std::vector<double> stationary_shares() const override;

  /// Current residual load of a server; exposed for tests.
  double residual(web::ServerId s) const;

 private:
  sim::Simulator& sim_;
  const DomainModel& domains_;
  std::vector<double> capacities_;
  std::vector<double> rate_sum_;         // Σ λ_m over live mappings
  std::vector<double> rate_expiry_sum_;  // Σ λ_m · expiry_m over live mappings
};

}  // namespace adattl::core
