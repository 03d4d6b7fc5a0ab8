#include "core/load_estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adattl::core {

LoadEstimator::LoadEstimator(DomainModel& model, bool oracle)
    : model_(model), oracle_(oracle) {}

bool LoadEstimator::observe(const std::vector<std::uint64_t>& hits_per_domain,
                            double window_sec) {
  if (oracle_) return false;
  if (hits_per_domain.size() != static_cast<std::size_t>(model_.num_domains())) {
    throw std::invalid_argument("LoadEstimator: domain count mismatch");
  }
  if (window_sec <= 0) throw std::invalid_argument("LoadEstimator: bad window");

  std::vector<double> rates(hits_per_domain.size());
  for (std::size_t d = 0; d < rates.size(); ++d) {
    rates[d] = static_cast<double>(hits_per_domain[d]) / window_sec;
  }

  // Empty (all-zero) windows are real observations: a traffic lull must
  // decay the running estimate, or an idle domain's stale weight would be
  // frozen forever. They therefore flow into incorporate() like any other
  // window; only the *install* is guarded, because a weight vector with no
  // positive entry carries no ranking information (and DomainModel rejects
  // it), so the model keeps its previous weights until traffic returns.
  std::vector<double> weights = incorporate(rates);
  if (weights.empty()) return false;
  // Only windows the estimator actually folded in count as observed —
  // incorporate() returning empty means the window was discarded without
  // touching any state (e.g. an all-zero window before an EWMA has seeded),
  // and the kEstimatorUpdate trace must not report it as an update.
  ++windows_;
  double hottest = 0.0;
  for (const double w : weights) hottest = std::max(hottest, w);
  if (hottest <= 0.0) return false;
  // Floor the *installed* vector (estimator state keeps its true values):
  // a forecast that clamped to exact zero must not install a hard-zero
  // weight — see kMinInstallFraction in the header.
  const double floor = kMinInstallFraction * hottest;
  for (double& w : weights) w = std::max(w, floor);
  model_.update_weights(std::move(weights));
  return true;
}

std::vector<double> LoadEstimator::scaled_prior(const std::vector<double>& rates) const {
  const std::vector<double>& prior = model_.weights();
  double rate_total = 0.0;
  for (const double r : rates) rate_total += r;
  double prior_total = 0.0;
  for (const double w : prior) prior_total += w;
  if (rate_total <= 0.0 || prior_total <= 0.0 || prior.size() != rates.size()) {
    return rates;
  }
  std::vector<double> scaled(prior.size());
  const double scale = rate_total / prior_total;
  for (std::size_t d = 0; d < prior.size(); ++d) scaled[d] = prior[d] * scale;
  return scaled;
}

namespace {

bool any_positive_rate(const std::vector<double>& rates) {
  for (const double r : rates) {
    if (r > 0.0) return true;
  }
  return false;
}

}  // namespace

SlidingWindowLoadEstimator::SlidingWindowLoadEstimator(DomainModel& model, int window_count,
                                                       bool oracle)
    : LoadEstimator(model, oracle),
      window_count_(window_count),
      sums_(static_cast<std::size_t>(model.num_domains()), 0.0) {
  if (window_count < 1) {
    throw std::invalid_argument("SlidingWindowLoadEstimator: need >= 1 window");
  }
}

std::vector<double> SlidingWindowLoadEstimator::incorporate(const std::vector<double>& rates) {
  history_.push_back(rates);
  if (static_cast<int>(history_.size()) > window_count_) history_.pop_front();
  // The sums are recomputed from the retained windows every time. An
  // add-then-subtract running sum looks cheaper, but it keeps every
  // rounding error it ever made: over the millions of collection windows a
  // long large-population run produces, cancellation (one huge flash-crowd
  // window absorbing the small ones added after it) drifts the "sum" of
  // the current window arbitrarily far from the true one. The deque holds
  // at most window_count_ vectors, so a fresh sum is O(windows · domains)
  // — trivial — and exact in the only sense that matters: it is a function
  // of the retained windows alone.
  std::fill(sums_.begin(), sums_.end(), 0.0);
  for (const std::vector<double>& window : history_) {
    for (std::size_t d = 0; d < sums_.size(); ++d) sums_[d] += window[d];
  }
  std::vector<double> avg(sums_.size());
  for (std::size_t d = 0; d < sums_.size(); ++d) {
    avg[d] = sums_[d] / static_cast<double>(history_.size());
  }
  return avg;
}

HoltWintersLoadEstimator::HoltWintersLoadEstimator(DomainModel& model, double smoothing,
                                                   double trend, bool oracle,
                                                   bool seed_from_model)
    : LoadEstimator(model, oracle),
      alpha_(smoothing),
      beta_(trend),
      level_(static_cast<std::size_t>(model.num_domains()), 0.0),
      trend_(static_cast<std::size_t>(model.num_domains()), 0.0),
      seed_from_model_(seed_from_model) {
  if (smoothing <= 0.0 || smoothing > 1.0) {
    throw std::invalid_argument("HoltWintersLoadEstimator: smoothing must lie in (0, 1]");
  }
  if (trend < 0.0 || trend > 1.0) {
    throw std::invalid_argument("HoltWintersLoadEstimator: trend must lie in [0, 1]");
  }
}

std::vector<double> HoltWintersLoadEstimator::incorporate(const std::vector<double>& rates) {
  if (!seeded_) {
    // An all-zero window before any traffic carries no information to seed
    // from: discard it (empty return — it does not count as observed).
    if (!any_positive_rate(rates)) return {};
    seeded_ = true;
    // Trend starts at zero either way: one window gives no slope.
    if (seed_from_model_) {
      // Cold start: the model holds deliberately-uninformed (uniform)
      // weights, but they are still the configured prior. Seeding the
      // level *outright* from the first non-empty window would anchor it
      // with zero smoothing — a flash crowd landing in that window becomes
      // the whole estimate. Instead seed from the prior (scale-matched to
      // the observed total) and let the first window blend through the
      // normal update below.
      level_ = scaled_prior(rates);
    } else {
      // Warm start: the model already holds the true weights; the first
      // measured window is strictly better information, take it whole.
      level_ = rates;
      return level_;
    }
  }
  std::vector<double> forecast(level_.size());
  for (std::size_t d = 0; d < level_.size(); ++d) {
    const double prev_level = level_[d];
    const double next_level = alpha_ * rates[d] + (1.0 - alpha_) * (prev_level + trend_[d]);
    trend_[d] = beta_ * (next_level - prev_level) + (1.0 - beta_) * trend_[d];
    level_[d] = next_level;
    // Install the one-step-ahead forecast, floored at zero (a cooling
    // domain's negative trend must not forecast a negative rate).
    forecast[d] = std::max(next_level + trend_[d], 0.0);
  }
  return forecast;
}

ArLoadEstimator::ArLoadEstimator(DomainModel& model, int order, bool oracle)
    : LoadEstimator(model, oracle),
      order_(order),
      history_cap_(static_cast<std::size_t>(std::max(16, 4 * order))),
      history_(static_cast<std::size_t>(model.num_domains())) {
  if (order < 1) throw std::invalid_argument("ArLoadEstimator: order must be >= 1");
}

std::vector<double> ArLoadEstimator::incorporate(const std::vector<double>& rates) {
  std::vector<double> forecast(rates.size());
  for (std::size_t d = 0; d < rates.size(); ++d) {
    std::deque<double>& h = history_[d];
    h.push_back(rates[d]);
    if (h.size() > history_cap_) h.pop_front();
    forecast[d] = predict(h);
  }
  return forecast;
}

double ArLoadEstimator::predict(const std::deque<double>& history) const {
  const std::size_t p = static_cast<std::size_t>(order_);
  const std::size_t n = history.size();
  // The design matrix needs at least p+2 rows (p lags + intercept + one
  // degree of freedom); below that, the newest observation is the forecast.
  const std::size_t rows = n > p ? n - p : 0;
  if (rows < p + 2) return history.back();

  // Least-squares fit of x_t = c + Σ φ_i x_{t-i} via the normal equations
  // A^T A θ = A^T y with θ = [c, φ_1..φ_p]. dim = p + 1 is tiny (≤ 17), so
  // dense Gaussian elimination with partial pivoting is exact enough and
  // allocation is negligible at one fit per domain per window.
  const std::size_t dim = p + 1;
  std::vector<double> ata(dim * dim, 0.0);
  std::vector<double> aty(dim, 0.0);
  std::vector<double> row(dim, 1.0);  // row[0] = intercept
  for (std::size_t t = p; t < n; ++t) {
    for (std::size_t i = 1; i <= p; ++i) row[i] = history[t - i];
    const double y = history[t];
    for (std::size_t i = 0; i < dim; ++i) {
      aty[i] += row[i] * y;
      for (std::size_t j = i; j < dim; ++j) ata[i * dim + j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < i; ++j) ata[i * dim + j] = ata[j * dim + i];
  }

  // Gaussian elimination with partial pivoting on [ata | aty].
  std::vector<std::size_t> perm(dim);
  for (std::size_t i = 0; i < dim; ++i) perm[i] = i;
  for (std::size_t col = 0; col < dim; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(ata[perm[col] * dim + col]);
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double v = std::fabs(ata[perm[r] * dim + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    // A (near-)singular system means the lag matrix carries no usable
    // signal (e.g. constant history); persistence is the honest forecast.
    if (best < 1e-12) return history.back();
    std::swap(perm[col], perm[pivot]);
    const double diag = ata[perm[col] * dim + col];
    for (std::size_t r = col + 1; r < dim; ++r) {
      const double f = ata[perm[r] * dim + col] / diag;
      if (f == 0.0) continue;
      for (std::size_t j = col; j < dim; ++j) {
        ata[perm[r] * dim + j] -= f * ata[perm[col] * dim + j];
      }
      aty[perm[r]] -= f * aty[perm[col]];
    }
  }
  std::vector<double> theta(dim, 0.0);
  for (std::size_t i = dim; i-- > 0;) {
    double acc = aty[perm[i]];
    for (std::size_t j = i + 1; j < dim; ++j) acc -= ata[perm[i] * dim + j] * theta[j];
    theta[i] = acc / ata[perm[i] * dim + i];
  }

  // One-step forecast from the newest p observations.
  double pred = theta[0];
  for (std::size_t i = 1; i <= p; ++i) pred += theta[i] * history[n - i];
  if (!std::isfinite(pred)) return history.back();
  return std::max(pred, 0.0);
}

}  // namespace adattl::core
