#pragma once

#include <vector>

#include "core/domain_model.h"

namespace adattl::core {

/// Strategy that assigns the TTL carried by one address mapping.
class TtlPolicy {
 public:
  virtual ~TtlPolicy() = default;

  /// TTL (seconds) for a mapping of `domain` onto `server`.
  virtual double ttl(web::DomainId domain, web::ServerId server) const = 0;

  /// Re-derives internal factors after a hidden-load-weight update.
  virtual void recalibrate() = 0;
};

/// TTL/1 — the non-adaptive baseline: one constant TTL for everything
/// (the paper uses 240 s).
class ConstantTtlPolicy : public TtlPolicy {
 public:
  explicit ConstantTtlPolicy(double ttl_sec);

  double ttl(web::DomainId, web::ServerId) const override { return value_; }
  void recalibrate() override {}

 private:
  double value_;
};

/// The adaptive TTL family (§3): TTL(d, s) = base · f_d · g_s with
///
///   f_d = (mean weight of the hottest class) / (mean weight of d's class)
///         — the domain term; classes per DomainModel::partition
///           (1 ⇒ f ≡ 1; 2 ⇒ hot/normal; kPerDomainClasses ⇒ ω_max/ω_d);
///   g_s = C_s / C_N when the server term is enabled (deterministic
///         TTL/S_i policies), else 1 (probabilistic TTL/i policies).
///
/// `base` is solved so the policy's aggregate address-request rate equals
/// that of a constant `reference_ttl` (the paper's fairness rule, §4.1):
/// each active domain re-resolves once per expected TTL, so
///
///   Σ_d 1 / (base · f_d · E_s[g]) = K / reference_ttl
///   ⇒ base = reference_ttl · Σ_d (1/f_d) / (K · E_s[g]),
///
/// where E_s[g] averages the server term over the selection policy's
/// stationary shares. With calibration disabled (ablation), base is simply
/// reference_ttl.
class AdaptiveTtlPolicy : public TtlPolicy {
 public:
  AdaptiveTtlPolicy(const DomainModel& domains, std::vector<double> capacities, int num_classes,
                    bool server_term, std::vector<double> selection_shares,
                    double reference_ttl = 240.0, bool calibrate = true);

  double ttl(web::DomainId domain, web::ServerId server) const override;
  void recalibrate() override;

  /// Smallest TTL the policy can emit (hottest class on the weakest server).
  double min_ttl() const;
  double base() const { return base_; }
  int num_classes() const { return num_classes_; }
  bool has_server_term() const { return server_term_; }

  /// Expected aggregate address-request rate (1/s) — exposed so tests can
  /// assert calibration parity across policies.
  double expected_address_rate() const;

 private:
  const DomainModel& domains_;
  std::vector<double> server_factor_;  // g_s
  int num_classes_;
  bool server_term_;
  std::vector<double> shares_;
  double reference_ttl_;
  bool calibrate_;

  std::vector<double> domain_factor_;  // f_d, rebuilt on recalibrate()
  double mean_server_factor_ = 1.0;    // E_s[g]
  double base_ = 0.0;
};

}  // namespace adattl::core
