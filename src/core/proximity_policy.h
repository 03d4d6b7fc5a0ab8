#pragma once

#include <memory>
#include <vector>

#include "core/selection_policy.h"
#include "geo/geo_model.h"

namespace adattl::core {

/// Proximity-first selection (extension, "GEO"): each domain is served by
/// its nearest servers (minimal RTT in the GeoModel), interleaved by
/// smooth capacity-weighted round robin; if every nearby server is
/// alarmed, selection falls back to capacity-weighted RR over all
/// eligible servers — latency is sacrificed before availability.
///
/// This is the policy a CDN-minded operator would write first. The geo
/// ablation quantifies the paper's implicit trade: GEO minimizes network
/// RTT but concentrates each region's hot domains on that region's
/// servers, so its load balance degrades exactly where adaptive TTL's
/// global spreading shines.
class ProximityPolicy : public SelectionPolicy {
 public:
  ProximityPolicy(std::shared_ptr<const geo::GeoModel> geo, std::vector<double> capacities);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;
  std::vector<double> stationary_shares() const override;

 private:
  web::ServerId weighted_pick(std::vector<double>& credit, const std::vector<bool>& allowed,
                              const std::vector<bool>& eligible);

  std::shared_ptr<const geo::GeoModel> geo_;
  std::vector<double> capacities_;
  double total_capacity_ = 0.0;
  std::vector<bool> all_allowed_;
  std::vector<std::vector<bool>> near_mask_;      // per domain
  std::vector<std::vector<double>> near_credit_;  // per-domain WRR state
  std::vector<double> global_credit_;             // fallback WRR state
};

}  // namespace adattl::core
