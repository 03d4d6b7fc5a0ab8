#include "core/cost_policy.h"

#include <algorithm>
#include <stdexcept>

#include "geo/geo_model.h"

namespace adattl::core {
// ---------------------------------------------------------- CostPolicyBase

CostPolicyBase::CostPolicyBase(std::vector<double> capacities)
    : capacities_(std::move(capacities)), pending_(capacities_.size(), 0.0) {
  if (capacities_.empty()) throw std::invalid_argument("COST: need >= 1 server");
  for (double c : capacities_) {
    if (c <= 0) throw std::invalid_argument("COST: capacities must be > 0");
    total_capacity_ += c;
    max_capacity_ = std::max(max_capacity_, c);
  }
}

double CostPolicyBase::load_score(const DecisionContext& ctx, std::size_t i) const {
  double load = pending_[i] * kAssignmentPressure * (max_capacity_ / capacities_[i]);
  if (ctx.utilization != nullptr && i < ctx.utilization->size()) {
    load += (*ctx.utilization)[i];
  }
  return load;
}

void CostPolicyBase::sync_generation(const DecisionContext& ctx) {
  // Must run BEFORE scores are computed: the first decision after a fresh
  // feedback observation has to see clean pending counters, or it would
  // dodge servers charged under the stale view the new report replaced.
  if (ctx.feedback_generation != seen_generation_) {
    seen_generation_ = ctx.feedback_generation;
    std::fill(pending_.begin(), pending_.end(), 0.0);
  }
}

void CostPolicyBase::note_assignment(web::ServerId server) {
  pending_[static_cast<std::size_t>(server)] += 1.0;
}

std::vector<double> CostPolicyBase::stationary_shares() const {
  // Calibration approximation: at steady state the load term equalizes
  // utilization, which lands shares near capacity-proportional.
  std::vector<double> shares(capacities_.size());
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    shares[i] = capacities_[i] / total_capacity_;
  }
  return shares;
}

// ------------------------------------------------------ CompositeCostPolicy

CompositeCostPolicy::CompositeCostPolicy(std::vector<double> capacities, double alpha)
    : CostPolicyBase(std::move(capacities)), alpha_(alpha) {
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    throw std::invalid_argument("COST: alpha must lie in [0, 1]");
  }
}

web::ServerId CompositeCostPolicy::select(const DecisionContext& ctx) {
  if (ctx.geo == nullptr) throw std::logic_error("COST: decision context has no geo model");
  sync_generation(ctx);
  const std::vector<bool>& eligible = *ctx.eligible;
  const double max_rtt = ctx.geo->max_rtt();
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (!eligible[i]) continue;
    const double norm_rtt =
        max_rtt > 0.0 ? ctx.geo->rtt(ctx.domain, static_cast<int>(i)) / max_rtt : 0.0;
    const double cost = alpha_ * load_score(ctx, i) + (1.0 - alpha_) * norm_rtt;
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(i);
      best_cost = cost;
    }
  }
  if (best < 0) throw std::logic_error("COST: no eligible server");
  note_assignment(best);
  return best;
}

// --------------------------------------------------------- LatencyCapPolicy

LatencyCapPolicy::LatencyCapPolicy(std::vector<double> capacities, double cap_sec)
    : CostPolicyBase(std::move(capacities)), cap_sec_(cap_sec) {
  if (!(cap_sec > 0.0)) throw std::invalid_argument("COSTCAP: cap must be > 0 seconds");
}

web::ServerId LatencyCapPolicy::select(const DecisionContext& ctx) {
  if (ctx.geo == nullptr) {
    throw std::logic_error("COSTCAP: decision context has no geo model");
  }
  sync_generation(ctx);
  const std::vector<bool>& eligible = *ctx.eligible;
  int best = -1;
  double best_load = 0.0;
  bool best_in_cap = false;
  for (std::size_t i = 0; i < capacities_.size(); ++i) {
    if (!eligible[i]) continue;
    const bool in_cap = ctx.geo->rtt(ctx.domain, static_cast<int>(i)) <= cap_sec_;
    const double load = load_score(ctx, i);
    // Tier order: any in-cap server beats any out-of-cap server; within a
    // tier the smaller load score wins (ties → lowest index).
    const bool better = best < 0 || (in_cap && !best_in_cap) ||
                        (in_cap == best_in_cap && load < best_load);
    if (better) {
      best = static_cast<int>(i);
      best_load = load;
      best_in_cap = in_cap;
    }
  }
  if (best < 0) throw std::logic_error("COSTCAP: no eligible server");
  note_assignment(best);
  return best;
}

}  // namespace adattl::core
