#include "workload/think_time_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adattl::workload {

ThinkTimeModel::ThinkTimeModel(std::vector<double> base_mean_think_sec)
    : base_(std::move(base_mean_think_sec)), multiplier_(base_.size(), 1.0) {
  if (base_.empty()) throw std::invalid_argument("ThinkTimeModel: no domains");
  for (double t : base_) {
    if (t <= 0) throw std::invalid_argument("ThinkTimeModel: think time must be > 0");
  }
}

double ThinkTimeModel::mean_think(web::DomainId d) const {
  const auto i = static_cast<std::size_t>(d);
  return base_.at(i) / multiplier_.at(i);
}

double ThinkTimeModel::sample(web::DomainId d, sim::Rng& rng) const {
  return rng.exponential(mean_think(d));
}

void ThinkTimeModel::scale_rate(web::DomainId d, double factor) {
  if (!std::isfinite(factor)) {
    throw std::invalid_argument("ThinkTimeModel: rate factor must be finite");
  }
  if (factor <= 0) throw std::invalid_argument("ThinkTimeModel: rate factor must be > 0");
  double& m = multiplier_.at(static_cast<std::size_t>(d));
  m = std::clamp(m * factor, kMinRateMultiplier, kMaxRateMultiplier);
}

void ThinkTimeModel::set_rate(web::DomainId d, double multiplier) {
  if (!std::isfinite(multiplier)) {
    throw std::invalid_argument("ThinkTimeModel: rate multiplier must be finite");
  }
  if (multiplier <= 0) {
    throw std::invalid_argument("ThinkTimeModel: rate multiplier must be > 0");
  }
  multiplier_.at(static_cast<std::size_t>(d)) =
      std::clamp(multiplier, kMinRateMultiplier, kMaxRateMultiplier);
}

void ThinkTimeModel::reset_rate(web::DomainId d) {
  multiplier_.at(static_cast<std::size_t>(d)) = 1.0;
}

}  // namespace adattl::workload
