#pragma once

#include <cstdint>
#include <vector>

#include "obs/event_tracer.h"
#include "sim/time.h"
#include "web/types.h"

namespace adattl::core {

/// The paper's asynchronous feedback mechanism (§2): each server checks its
/// utilization every reporting interval; crossing the alarm threshold θ
/// upward sends an "alarm" signal to the DNS, crossing it downward sends a
/// "normal" signal. Alarmed servers are excluded from scheduling until
/// they recover.
///
/// The run driver (SliceSet::run) feeds observe_full() on every monitor
/// tick, so signals arrive with the same 8-second cadence the paper models.
/// The paper's feedback is utilization-only; a *silent outage* (a stalled
/// server) leaves utilization near zero while its backlog explodes, so a
/// utilization-only DNS keeps feeding the dead server. The optional queue
/// threshold extends the signal: a server is also alarmed while its queue
/// exceeds `queue_threshold` pages (0 = paper-faithful, disabled).
class AlarmRegistry {
 public:
  AlarmRegistry(int num_servers, double threshold, bool enabled = true,
                std::size_t queue_threshold = 0);

  /// Feeds one utilization report (index == ServerId).
  void observe(sim::SimTime now, const std::vector<double>& utilizations);

  /// Feeds utilizations plus queue lengths (for the queue threshold).
  void observe_full(sim::SimTime now, const std::vector<double>& utilizations,
                    const std::vector<std::size_t>& queue_lengths);

  bool is_alarmed(web::ServerId s) const { return alarmed_.at(static_cast<std::size_t>(s)); }

  /// Marks a server down (crashed) or back up. Unlike the utilization
  /// alarm — a *soft* overload hint fed by periodic reports — down is a
  /// *hard* health fact (failed health checks / connection refusals), so
  /// it works even when the alarm feedback is disabled and a down server
  /// only re-enters the eligible set when every candidate is down (the
  /// DNS must answer with something).
  void set_down(web::ServerId s, bool down);
  bool is_down(web::ServerId s) const { return down_.at(static_cast<std::size_t>(s)); }

  /// Elastic pool membership (extension): a scaled-down server leaves the
  /// DNS pool — no new mappings — but keeps draining its queue and serving
  /// pages from cached mappings until they expire, so work is conserved.
  /// Distinct from both the soft alarm and the hard down bit: membership
  /// is an *operator/autoscaler decision*, not a health observation.
  void set_in_pool(web::ServerId s, bool in_pool);
  bool in_pool(web::ServerId s) const { return in_pool_.at(static_cast<std::size_t>(s)); }

  /// Servers currently in the DNS pool.
  int pool_size() const { return pool_size_; }

  /// Count of effective pool-membership flips (scale-up + scale-down).
  std::uint64_t pool_changes() const { return pool_changes_; }

  /// True for servers eligible to receive new mappings. If every server is
  /// alarmed the DNS must still answer, so eligibility widens along the
  /// ladder in-pool-healthy → in-pool-up → any-up → all.
  const std::vector<bool>& eligible() const { return eligible_; }

  /// Last utilization / queue observation incorporated by observe_full —
  /// retained (even when alarm signalling is disabled) so the scheduler
  /// can hand feedback state to cost-based policies via DecisionContext.
  const std::vector<double>& last_utilization() const { return last_utilization_; }
  const std::vector<std::size_t>& last_queue_depth() const { return last_queue_depth_; }

  /// Monotonic count of incorporated observations (DecisionContext's
  /// anti-herding epoch).
  std::uint64_t feedback_generation() const { return feedback_generation_; }

  double threshold() const { return threshold_; }
  std::size_t queue_threshold() const { return queue_threshold_; }
  bool enabled() const { return enabled_; }

  /// Signal traffic counters (alarm + normal transitions), a proxy for the
  /// feedback overhead the paper argues is low.
  std::uint64_t alarm_signals() const { return alarm_signals_; }
  std::uint64_t normal_signals() const { return normal_signals_; }

  /// Wires alarm-flip trace records onto `tracer` (may be null).
  void bind_observability(obs::EventTracer* tracer) { tracer_ = tracer; }

 private:
  void rebuild_eligible();

  double threshold_;
  std::size_t queue_threshold_;
  bool enabled_;
  std::vector<bool> alarmed_;
  std::vector<bool> down_;
  std::vector<bool> in_pool_;
  std::vector<bool> eligible_;
  std::vector<double> last_utilization_;
  std::vector<std::size_t> last_queue_depth_;
  int pool_size_ = 0;
  std::uint64_t pool_changes_ = 0;
  std::uint64_t feedback_generation_ = 0;
  std::uint64_t alarm_signals_ = 0;
  std::uint64_t normal_signals_ = 0;
  obs::EventTracer* tracer_ = nullptr;
};

}  // namespace adattl::core
