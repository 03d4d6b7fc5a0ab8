#pragma once

#include <vector>

#include "sim/random.h"
#include "web/types.h"

namespace adattl::workload {

/// Source of client think times, with support for *dynamic* per-domain
/// rate changes (the paper's conclusions single out "intrinsic high load
/// skews and dynamic variations" as the environment adaptive TTL targets).
///
/// Each domain has a base mean think time; a runtime multiplier scales the
/// domain's request *rate* (rate x f ⇒ think / f). The experiment layer
/// schedules multiplier changes (flash crowds, load shifts) as simulator
/// events; clients sample through this model so changes take effect on
/// their next think period, with no per-client bookkeeping.
class ThinkTimeModel {
 public:
  /// Bounds on a domain's composed rate multiplier. Long generated traces
  /// compose thousands of small multiplicative steps; without a floor/cap
  /// the product can underflow to denormal/0 (think time -> inf: the
  /// domain silently dies) or overflow (think time -> 0: the event queue
  /// floods with zero-delay wakeups). 1e-6..1e6 spans any physically
  /// meaningful load swing while keeping base/multiplier comfortably
  /// inside normal double range.
  static constexpr double kMinRateMultiplier = 1e-6;
  static constexpr double kMaxRateMultiplier = 1e6;

  explicit ThinkTimeModel(std::vector<double> base_mean_think_sec);

  int num_domains() const { return static_cast<int>(base_.size()); }

  /// Current mean think time of a domain (base / rate multiplier).
  double mean_think(web::DomainId d) const;

  /// Draws one exponential think time for a client of domain `d`.
  double sample(web::DomainId d, sim::Rng& rng) const;

  /// Scales domain `d`'s request rate by `factor`, composing with any
  /// previous scaling. factor > 1 = hotter, < 1 = cooler. Rejects
  /// non-finite or non-positive factors; the composed multiplier is
  /// clamped to [kMinRateMultiplier, kMaxRateMultiplier].
  void scale_rate(web::DomainId d, double factor);

  /// Sets domain `d`'s rate multiplier outright (trace replay: each trace
  /// point is an absolute multiplier, so replays are idempotent and never
  /// compound). Rejects non-finite or non-positive multipliers; clamps to
  /// the same validated range as scale_rate.
  void set_rate(web::DomainId d, double multiplier);

  /// Resets domain `d` to its base rate.
  void reset_rate(web::DomainId d);

  double rate_multiplier(web::DomainId d) const {
    return multiplier_.at(static_cast<std::size_t>(d));
  }

 private:
  std::vector<double> base_;
  std::vector<double> multiplier_;
};

/// One scheduled workload change: at `at_sec`, multiply domain
/// `domain`'s request rate by `rate_factor`. Used by SimulationConfig to
/// script flash crowds.
struct RateShift {
  double at_sec = 0.0;
  web::DomainId domain = 0;
  double rate_factor = 1.0;
};

}  // namespace adattl::workload
