#pragma once

#include <memory>

#include "experiment/config.h"
#include "experiment/site_slice.h"
#include "obs/event_tracer.h"
#include "sim/simulator.h"
#include "web/monitor_hub.h"

namespace adattl::experiment {

/// One fully wired distributed Web site: servers, authoritative DNS
/// scheduler, per-domain name servers, client population, monitor, alarm
/// feedback, hidden-load estimation and metrics.
///
/// The object graph is one SiteSlice that owns every domain. Its in-queue
/// MonitorHub reports every monitor_interval_sec and drives the shared
/// SliceSet::feedback_tick; run() executes warm-up plus the measured
/// period and returns SliceSet::reduce. One Site = one simulation run
/// (single-use).
class Site {
 public:
  explicit Site(const SimulationConfig& config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Runs warm-up + measured period; single use.
  RunResult run();

  // ---- Introspection (tests, examples) ----
  const SliceSet& slices() const { return slices_; }
  sim::Simulator& simulator() { return *slice().sim; }
  web::Cluster& cluster() { return *slice().cluster; }
  core::DnsScheduler& scheduler() { return *slice().bundle.scheduler; }
  core::DomainModel& domain_model() { return *slice().bundle.domains; }
  web::MonitorHub& monitor() { return *monitor_; }
  core::LoadEstimator& estimator() { return *slice().estimator; }
  const workload::DomainSet& domain_set() const { return slices_.workload().domains; }
  workload::ThinkTimeModel& think_time_model() { return *slice().think; }
  /// NS `replica` (0-based) of domain `d`; throws std::out_of_range unless
  /// 0 <= d < num_domains and 0 <= replica < ns_per_domain.
  dnscache::NameServer& name_server(int d, int replica = 0);
  const SimulationConfig& config() const { return config_; }
  /// The fault layer (always constructed; empty schedule = inert).
  fault::FaultInjector& fault_injector() { return *slice().fault; }
  /// Null unless config.trace_enabled.
  obs::EventTracer* event_tracer() { return event_tracer_.get(); }

 private:
  SiteSlice& slice() { return slices_[0]; }

  SimulationConfig config_;
  SliceSet slices_;
  std::unique_ptr<web::MonitorHub> monitor_;

  // Null unless config.trace_enabled — the zero-cost default.
  std::unique_ptr<obs::EventTracer> event_tracer_;
  double setup_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
