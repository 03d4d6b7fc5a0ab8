#pragma once

#include <vector>

#include "core/domain_model.h"
#include "core/selection_policy.h"
#include "sim/random.h"

namespace adattl::core {

/// Tiered round robin: the paper's one selection rule (§3, §3.1). Domains
/// are partitioned into `tiers` classes (DomainModel::partition) and each
/// class cycles its own pointer over the servers, so a burst of same-class
/// mappings spreads while classes stay decoupled. Advancing cyclically
/// from its class's last pick, the pointer accepts eligible candidate S_i
/// with probability α_i and otherwise skips it. The family:
///
///   * RR  — 1 tier, α ≡ 1: the NCSA scheme;
///   * RR2 — 2 tiers (the γ hot/normal split), α ≡ 1: ICDCS'97 [4];
///   * RRn, RRK — n log-spaced tiers, or one per domain (kPerDomainClasses),
///     α ≡ 1: extensions beyond the paper, which stops at two tiers;
///   * PRR, PRR2 — 1 or 2 tiers with α_i = C_i / C_1: long-run shares are
///     proportional to capacity, which is how the probabilistic family
///     absorbs heterogeneity.
///
/// An α of 1 draws no variate, so the deterministic family never touches
/// `rng`. The domain→class table is re-derived on every weight update, so
/// a decision is a table lookup; a class that empties keeps its pointer.
class RoundRobinPolicy : public SelectionPolicy {
 public:
  /// `alpha` holds one acceptance probability in (0, 1] per server. The
  /// policy subscribes to `domains` for good: the model must outlive it
  /// and update no weights after it is destroyed.
  RoundRobinPolicy(std::vector<double> alpha, DomainModel& domains, int tiers,
                   sim::RngStream rng);
  RoundRobinPolicy(const RoundRobinPolicy&) = delete;
  RoundRobinPolicy& operator=(const RoundRobinPolicy&) = delete;

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;
  std::vector<double> stationary_shares() const override;

 private:
  void reclassify();

  std::vector<double> alpha_;
  const DomainModel& domains_;
  int tiers_;
  sim::RngStream rng_;
  std::vector<int> tier_;  // domain → class
  std::vector<int> last_;  // one pointer per class, grown on demand
};

/// Smooth weighted round robin (WRR — extension baseline): the classic
/// deterministic capacity-proportional interleaving (as popularized by
/// nginx). Per decision every server's credit grows by its weight; the
/// highest-credit eligible server is chosen and pays back the total
/// weight. Exact capacity-proportional shares with zero randomness —
/// PRR's deterministic cousin, useful to separate "capacity awareness"
/// from "randomized tie-breaking" in comparisons.
class WeightedRoundRobinPolicy : public SelectionPolicy {
 public:
  explicit WeightedRoundRobinPolicy(std::vector<double> weights);

  using SelectionPolicy::select;
  web::ServerId select(const DecisionContext& ctx) override;
  std::vector<double> stationary_shares() const override;

 private:
  std::vector<double> weights_;
  std::vector<double> credit_;
  double total_weight_ = 0.0;
};

}  // namespace adattl::core
