#pragma once

#include <vector>

#include "core/domain_model.h"
#include "core/selection_policy.h"
#include "sim/simulator.h"

namespace adattl::core {

/// Capacity-normalized "minimum dynamically accumulated load" baseline
/// (DAL, from Colajanni/Yu/Dias ICDCS'97, in the capacity-aware version the
/// paper evaluates in Figure 3).
///
/// For each mapping handed out, the requesting domain's hidden load share
/// is accumulated on the chosen server for the lifetime of the mapping
/// (its TTL); the next request goes to the server with the minimum
/// accumulated load per unit capacity. This is the strongest
/// homogeneous-era scheme — and the paper's point is that even
/// capacity-normalized it cannot cope with joint skew + heterogeneity.
class DalPolicy : public SelectionPolicy {
 public:
  DalPolicy(sim::Simulator& sim, const DomainModel& domains, std::vector<double> capacities);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;
  void on_assign(web::DomainId domain, web::ServerId server, double ttl) override;
  std::vector<double> stationary_shares() const override;

  /// Currently accumulated (undecayed) load of a server; exposed for tests.
  double accumulated(web::ServerId s) const {
    return accumulated_.at(static_cast<std::size_t>(s));
  }

 private:
  sim::Simulator& sim_;
  const DomainModel& domains_;
  std::vector<double> capacities_;
  std::vector<double> accumulated_;
};

}  // namespace adattl::core
