#pragma once

#include <vector>

#include "core/selection_policy.h"

namespace adattl::core {

/// Shared machinery of the composite-objective family (arXiv:1402.2090
/// direction): a per-server *load score* built from the DecisionContext's
/// feedback fields,
///
///   load_i = util_i + pressure · pending_i · (C_max / C_i)
///
/// where util_i is the last observed utilization (stale by up to one
/// monitor interval) and pending_i counts mappings handed to S_i since
/// that observation. The pending term is anti-herding: between feedback
/// updates a pure min-util rule would dump every mapping on the same
/// server; charging each assignment a small capacity-normalized
/// utilization estimate spreads them. The counter resets whenever
/// `feedback_generation` advances.
class CostPolicyBase : public SelectionPolicy {
 public:
  explicit CostPolicyBase(std::vector<double> capacities);

  std::vector<double> stationary_shares() const override;

 protected:
  /// Estimated utilization one more mapping adds to the largest server
  /// within a monitor interval (smaller servers are charged C_max/C_i
  /// times more). The value only has to be the right order of magnitude —
  /// it trades herding suppression against responsiveness to real load.
  static constexpr double kAssignmentPressure = 0.02;

  double load_score(const DecisionContext& ctx, std::size_t i) const;
  /// Call at select() entry, before any load_score: resets the pending
  /// counters when the feedback generation advanced.
  void sync_generation(const DecisionContext& ctx);
  void note_assignment(web::ServerId server);

  std::vector<double> capacities_;
  double total_capacity_ = 0.0;
  double max_capacity_ = 0.0;

 private:
  std::vector<double> pending_;
  std::uint64_t seen_generation_ = 0;
};

/// COST(alpha): weighted sum of utilization imbalance and normalized
/// client↔server RTT,
///
///   cost_i = alpha · load_i + (1 − alpha) · rtt(d, i) / max_rtt,
///
/// minimized over eligible servers (ties → lowest index). alpha = 1 is a
/// pure feedback-driven balancer, alpha = 0 pure proximity (and herds by
/// design); intermediate alphas trace the utilization-vs-latency frontier
/// in BENCH_geo.json. Requires geography — the factory rejects it when no
/// GeoModel is configured.
class CompositeCostPolicy : public CostPolicyBase {
 public:
  CompositeCostPolicy(std::vector<double> capacities, double alpha);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
};

/// COSTCAP(cap_sec): the latency-capped two-tier variant. Tier 1 is the
/// set of eligible servers within `cap_sec` RTT of the requesting domain;
/// within it the pure load score decides (latency below the cap is "good
/// enough", so balance freely). Only when no in-cap server is eligible
/// does selection widen to all eligible servers — availability beats the
/// latency budget.
class LatencyCapPolicy : public CostPolicyBase {
 public:
  LatencyCapPolicy(std::vector<double> capacities, double cap_sec);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;

  double cap_sec() const { return cap_sec_; }

 private:
  double cap_sec_;
};

}  // namespace adattl::core
