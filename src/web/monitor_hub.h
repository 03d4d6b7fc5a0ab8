#pragma once

#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "web/cluster.h"

namespace adattl::web {

/// Periodic utilization monitor (paper §2: "each server periodically
/// calculates its utilization").
///
/// Every `interval` seconds it computes each server's utilization over the
/// elapsed window (busy-time delta / interval) and pushes it, with the
/// queue lengths, to every registered observer. The alarm feedback, the
/// max-utilization metric and the hidden-load collection all hang off this
/// single clock so their samples stay aligned, mirroring the paper's single
/// 8-second reporting period.
class MonitorHub {
 public:
  /// Receives (time, utilizations, queue lengths), both indexed by
  /// ServerId. Queue lengths (pages waiting or in service) are the signal
  /// that exposes silent outages, which leave utilization *low* while the
  /// backlog explodes.
  using FullObserver = std::function<void(sim::SimTime, const std::vector<double>&,
                                          const std::vector<std::size_t>&)>;

  MonitorHub(sim::Simulator& sim, Cluster& cluster, double interval_sec);

  MonitorHub(const MonitorHub&) = delete;
  MonitorHub& operator=(const MonitorHub&) = delete;

  void add_full_observer(FullObserver obs) { full_observers_.push_back(std::move(obs)); }

  /// Starts ticking; the first report fires one interval from now.
  void start();

  double interval() const { return interval_; }

  /// Utilizations from the most recent completed window.
  const std::vector<double>& last_utilizations() const { return last_util_; }
  /// Queue lengths at the most recent tick.
  const std::vector<std::size_t>& last_queue_lengths() const { return last_queue_; }

 private:
  void tick();

  sim::Simulator& sim_;
  Cluster& cluster_;
  double interval_;
  std::vector<double> prev_busy_;
  std::vector<double> last_util_;
  std::vector<std::size_t> last_queue_;
  std::vector<FullObserver> full_observers_;
};

}  // namespace adattl::web
