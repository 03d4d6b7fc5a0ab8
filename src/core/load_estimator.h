#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/domain_model.h"

namespace adattl::core {

/// Online estimator of per-domain hidden load weights (paper §3.1: "the
/// servers keep track of the number of incoming requests from each domain
/// and the DNS periodically collects the information"; the companion
/// report [3] studies estimator design in depth).
///
/// Each collection window the experiment drains every server's per-domain
/// hit counters, sums them, and feeds the totals here; the estimator turns
/// them into a weight vector and pushes it into the DomainModel (which in
/// turn triggers TTL recalibration).
///
/// With `oracle` mode the estimator is inert and the DomainModel keeps its
/// configured weights — the controlled setting used by the paper's
/// estimation-error study, where the workload is perturbed while "the DNS
/// estimates of the hidden load weight remain the same as before".
class LoadEstimator {
 public:
  LoadEstimator(DomainModel& model, bool oracle);
  virtual ~LoadEstimator() = default;

  /// Installed weights are floored at this fraction of the hottest
  /// installed weight. A forecast can legitimately clamp to exactly zero
  /// (AR predicting past the bottom of a decay, Holt-Winters' floored
  /// level+trend, a sliding window of all-zero observations for one
  /// domain), but installing that zero verbatim tells weight-*ratio*
  /// consumers the domain never gets requests — AdaptiveTtlPolicy's
  /// hottest/weight domain factor lands on its 1e-12 div-by-zero guard
  /// and hands out TTLs ~1e12x the reference. The fraction sits far below
  /// any real domain share, so genuine estimates are untouched.
  static constexpr double kMinInstallFraction = 1e-4;

  /// Feeds one collection window: total hits per domain over `window_sec`.
  /// No-op in oracle mode. All-zero (empty) windows are incorporated like
  /// any other observation so running estimates decay through traffic
  /// lulls; the model only keeps its previous weights when the resulting
  /// weight vector has no positive entry (no ranking information).
  /// Returns true if the window installed new weights into the model.
  bool observe(const std::vector<std::uint64_t>& hits_per_domain, double window_sec);

  bool oracle() const { return oracle_; }

  /// Windows that actually contributed to the running estimate. A window
  /// incorporate() discards without touching any state (e.g. an all-zero
  /// window before an EWMA has seeded) is NOT counted — this is the
  /// counter the kEstimatorUpdate trace record carries, and it must mean
  /// "estimate updates", not "observe() calls".
  int windows_observed() const { return windows_; }

 protected:
  /// Blends the newest observed rates into the running estimate; returns
  /// the weight vector to install. Contract: an empty return means the
  /// window was DISCARDED — no estimator state changed and the window
  /// must not count as observed. A non-empty return is an incorporated
  /// window (the install is still guarded: a vector with no positive
  /// entry keeps the model's previous weights).
  virtual std::vector<double> incorporate(const std::vector<double>& rates) = 0;

  int num_domains() const { return model_.num_domains(); }

  /// The currently installed model weights — the prior a cold-started
  /// estimator seeds from (see `seed_from_model` on the subclasses).
  const std::vector<double>& model_weights() const { return model_.weights(); }

  /// `model_weights()` rescaled so its total matches `rates`' total (the
  /// prior carries ranking information on an arbitrary scale; blending it
  /// against observed rates only makes sense scale-matched). Falls back to
  /// `rates` itself when either total is non-positive.
  std::vector<double> scaled_prior(const std::vector<double>& rates) const;

 private:
  DomainModel& model_;
  bool oracle_;
  int windows_ = 0;
};

/// Plain moving average over the last `window_count` collection windows:
/// smoother than EWMA under bursty traffic, slower to track shifts, and
/// O(window_count) memory.
class SlidingWindowLoadEstimator : public LoadEstimator {
 public:
  SlidingWindowLoadEstimator(DomainModel& model, int window_count, bool oracle = false);

 protected:
  std::vector<double> incorporate(const std::vector<double>& rates) override;

 private:
  int window_count_;
  std::deque<std::vector<double>> history_;
  std::vector<double> sums_;
};

/// Holt–Winters double exponential smoothing (level + trend), installing
/// the one-step-ahead forecast level + trend. Where plain EWMA lags a
/// regime shift by ~1/α windows, the trend term extrapolates the ramp, so
/// flash crowds and diurnal slopes are tracked ahead of the smoothed
/// level (arXiv:1606.09530 models DNS server load exactly this way:
/// prediction, not just smoothing, is what follows regime shifts).
class HoltWintersLoadEstimator : public LoadEstimator {
 public:
  /// `smoothing` (α) ∈ (0, 1] smooths the level; `trend` (β) ∈ [0, 1]
  /// smooths the trend (β = 0 keeps the trend at zero: EWMA).
  /// With `seed_from_model` (the estimator_cold_start path) the estimate
  /// seeds from the installed model weights — scale-matched to the first
  /// non-empty window — and that window blends normally, instead of
  /// anchoring the estimate outright with zero smoothing.
  HoltWintersLoadEstimator(DomainModel& model, double smoothing, double trend,
                           bool oracle = false, bool seed_from_model = false);

  const std::vector<double>& level() const { return level_; }
  const std::vector<double>& trend() const { return trend_; }

 protected:
  std::vector<double> incorporate(const std::vector<double>& rates) override;

 private:
  double alpha_;
  double beta_;
  std::vector<double> level_;
  std::vector<double> trend_;
  bool seeded_ = false;
  bool seed_from_model_;
};

/// Exponentially-weighted moving average: Holt–Winters with β = 0, whose
/// trend stays zero, so the level is the plain EWMA and the forecast is
/// the level. Cheap, memoryless, reacts to shifts within ~1/smoothing
/// windows. The library default.
class EwmaLoadEstimator : public HoltWintersLoadEstimator {
 public:
  /// `smoothing` ∈ (0, 1]: weight of the newest window (1 = no memory).
  EwmaLoadEstimator(DomainModel& model, double smoothing, bool oracle = false,
                    bool seed_from_model = false)
      : HoltWintersLoadEstimator(model, smoothing, 0.0, oracle, seed_from_model) {}
};

/// AR(p) one-step prediction: per domain, an autoregressive model
///   x_t = c + Σ_i φ_i·x_{t−i}
/// is refit by least squares over a bounded history each window, and the
/// installed weight is the model's forecast of the NEXT window. On a
/// noise-free step the fit is exact once p post-step points exist, so
/// reconvergence after a flash crowd takes ~p windows where EWMA needs
/// ~1/α·ln(1/ε). Falls back to the newest observation until the history
/// supports a fit (or when the normal equations are singular).
class ArLoadEstimator : public LoadEstimator {
 public:
  /// `order` = p ≥ 1. History retained per domain: max(16, 4p) windows.
  explicit ArLoadEstimator(DomainModel& model, int order, bool oracle = false);

  int order() const { return order_; }

 protected:
  std::vector<double> incorporate(const std::vector<double>& rates) override;

 private:
  /// One-step forecast for the given per-domain history (newest last);
  /// falls back to the newest observation when the fit is unsupported.
  double predict(const std::deque<double>& history) const;

  int order_;
  std::size_t history_cap_;
  std::vector<std::deque<double>> history_;  // per domain, newest last
};

}  // namespace adattl::core
