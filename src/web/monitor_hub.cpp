#include "web/monitor_hub.h"

#include <stdexcept>

namespace adattl::web {

MonitorHub::MonitorHub(sim::Simulator& sim, Cluster& cluster, double interval_sec)
    : sim_(sim),
      cluster_(cluster),
      interval_(interval_sec),
      prev_busy_(static_cast<std::size_t>(cluster.size()), 0.0),
      last_util_(static_cast<std::size_t>(cluster.size()), 0.0),
      last_queue_(static_cast<std::size_t>(cluster.size()), 0) {
  if (interval_sec <= 0) throw std::invalid_argument("MonitorHub: interval must be > 0");
}

void MonitorHub::start() {
  for (int i = 0; i < cluster_.size(); ++i) {
    prev_busy_[static_cast<std::size_t>(i)] =
        cluster_.server(i).cumulative_busy_time(sim_.now());
  }
  sim_.after(interval_, [this] { tick(); });
}

void MonitorHub::tick() {
  const sim::SimTime now = sim_.now();
  for (int i = 0; i < cluster_.size(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double busy = cluster_.server(i).cumulative_busy_time(now);
    last_util_[idx] = (busy - prev_busy_[idx]) / interval_;
    prev_busy_[idx] = busy;
    last_queue_[idx] = cluster_.server(i).queue_length();
  }
  for (const auto& obs : full_observers_) obs(now, last_util_, last_queue_);
  sim_.after(interval_, [this] { tick(); });
}

}  // namespace adattl::web
