#include "experiment/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace adattl::experiment {

MaxUtilizationTracker::MaxUtilizationTracker(int num_servers, sim::SimTime warmup_end,
                                             int cdf_bins, std::size_t batch_ticks)
    : warmup_end_(warmup_end),
      cdf_(1.0, cdf_bins),
      batches_(batch_ticks),
      per_server_(static_cast<std::size_t>(num_servers)) {
  if (num_servers <= 0) throw std::invalid_argument("MaxUtilizationTracker: need servers");
}

void MaxUtilizationTracker::observe(sim::SimTime now, const std::vector<double>& utilizations) {
  // Measured period is [warmup_end, horizon]: the sample taken exactly at
  // the warm-up boundary belongs to the measurement (closed on the left).
  // `<=` here silently dropped one tick per run — see DESIGN.md §11.
  if (now < warmup_end_) return;
  if (utilizations.size() != per_server_.size()) {
    throw std::invalid_argument("MaxUtilizationTracker: size mismatch");
  }
  double mx = 0.0;  // a max from 0: never negative, as Histogram::add requires
  for (std::size_t i = 0; i < utilizations.size(); ++i) {
    per_server_[i].add(utilizations[i]);
    mx = std::max(mx, utilizations[i]);
  }
  cdf_.add(mx);
  max_stat_.add(mx);
  batches_.add(mx);
}

std::vector<double> MaxUtilizationTracker::mean_utilizations() const {
  std::vector<double> out(per_server_.size());
  for (std::size_t i = 0; i < per_server_.size(); ++i) out[i] = per_server_[i].mean();
  return out;
}

}  // namespace adattl::experiment
