#include "core/alarm_registry.h"

#include <stdexcept>

namespace adattl::core {

AlarmRegistry::AlarmRegistry(int num_servers, double threshold, bool enabled,
                             std::size_t queue_threshold)
    : threshold_(threshold),
      queue_threshold_(queue_threshold),
      enabled_(enabled),
      alarmed_(static_cast<std::size_t>(num_servers), false),
      down_(static_cast<std::size_t>(num_servers), false),
      in_pool_(static_cast<std::size_t>(num_servers), true),
      eligible_(static_cast<std::size_t>(num_servers), true),
      last_utilization_(static_cast<std::size_t>(num_servers), 0.0),
      last_queue_depth_(static_cast<std::size_t>(num_servers), 0),
      pool_size_(num_servers) {
  if (num_servers <= 0) throw std::invalid_argument("AlarmRegistry: need >= 1 server");
  if (threshold <= 0.0 || threshold > 1.0) {
    throw std::invalid_argument("AlarmRegistry: threshold must lie in (0, 1]");
  }
}

void AlarmRegistry::observe(sim::SimTime now, const std::vector<double>& utilizations) {
  observe_full(now, utilizations, {});
}

void AlarmRegistry::observe_full(sim::SimTime now, const std::vector<double>& utilizations,
                                 const std::vector<std::size_t>& queue_lengths) {
  // Retain the feedback snapshot for DecisionContext consumers before the
  // enabled_ gate: disabling the paper's alarm signalling must not blind
  // cost-based policies or the autoscaler to observed utilization.
  if (utilizations.size() == alarmed_.size()) {
    last_utilization_ = utilizations;
    if (queue_lengths.size() == alarmed_.size()) last_queue_depth_ = queue_lengths;
    ++feedback_generation_;
  }
  if (!enabled_) return;
  if (utilizations.size() != alarmed_.size()) {
    throw std::invalid_argument("AlarmRegistry: utilization vector size mismatch");
  }
  if (!queue_lengths.empty() && queue_lengths.size() != alarmed_.size()) {
    throw std::invalid_argument("AlarmRegistry: queue vector size mismatch");
  }
  bool changed = false;
  for (std::size_t i = 0; i < utilizations.size(); ++i) {
    const bool queue_over = queue_threshold_ > 0 && !queue_lengths.empty() &&
                            queue_lengths[i] > queue_threshold_;
    const bool over = utilizations[i] > threshold_ || queue_over;
    if (over && !alarmed_[i]) {
      alarmed_[i] = true;
      ++alarm_signals_;
      if (tracer_) {
        tracer_->record(now, obs::TraceKind::kAlarm, static_cast<std::int32_t>(i), 0,
                        utilizations[i]);
      }
      changed = true;
    } else if (!over && alarmed_[i]) {
      alarmed_[i] = false;
      ++normal_signals_;
      if (tracer_) {
        tracer_->record(now, obs::TraceKind::kNormal, static_cast<std::int32_t>(i), 0,
                        utilizations[i]);
      }
      changed = true;
    }
  }
  if (changed) rebuild_eligible();
}

void AlarmRegistry::set_down(web::ServerId s, bool down) {
  // Down marking bypasses the enabled_ gate on purpose: disabling the
  // paper's utilization feedback must not make the DNS route to servers
  // it knows are dead.
  if (down_.at(static_cast<std::size_t>(s)) == down) return;
  down_[static_cast<std::size_t>(s)] = down;
  rebuild_eligible();
}

void AlarmRegistry::set_in_pool(web::ServerId s, bool in_pool) {
  if (in_pool_.at(static_cast<std::size_t>(s)) == in_pool) return;
  in_pool_[static_cast<std::size_t>(s)] = in_pool;
  pool_size_ += in_pool ? 1 : -1;
  ++pool_changes_;
  rebuild_eligible();
}

void AlarmRegistry::rebuild_eligible() {
  // Widening ladder: in-pool healthy servers first; if every in-pool
  // server is alarmed, any in-pool up server; if the pool is empty or
  // fully down, any up server (the DNS must answer with something); if
  // the whole site is down, everyone.
  bool any = false;
  bool any_pool_up = false;
  bool any_up = false;
  for (std::size_t i = 0; i < alarmed_.size(); ++i) {
    eligible_[i] = in_pool_[i] && !alarmed_[i] && !down_[i];
    any = any || eligible_[i];
    any_pool_up = any_pool_up || (in_pool_[i] && !down_[i]);
    any_up = any_up || !down_[i];
  }
  if (any) return;
  if (any_pool_up) {
    for (std::size_t i = 0; i < down_.size(); ++i) eligible_[i] = in_pool_[i] && !down_[i];
  } else if (any_up) {
    for (std::size_t i = 0; i < down_.size(); ++i) eligible_[i] = !down_[i];
  } else {
    eligible_.assign(eligible_.size(), true);
  }
}

}  // namespace adattl::core
