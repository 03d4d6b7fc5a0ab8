#pragma once

#include "experiment/config.h"
#include "experiment/parallel_executor.h"
#include "experiment/site_slice.h"
#include "sim/simulator.h"

namespace adattl::experiment {

/// One fully wired distributed Web site: servers, authoritative DNS
/// scheduler, per-domain name servers, client population, monitor, alarm
/// feedback, hidden-load estimation and metrics.
///
/// The object graph is one SiteSlice that owns every domain and draws from
/// the seed's own stream; SliceSet::run drives it on the monitor clock, on
/// the calling thread. One Site = one simulation run (single-use).
class Site {
 public:
  /// A site whose run may use ADATTL_JOBS threads (default_jobs(), read
  /// when run() starts).
  explicit Site(const SimulationConfig& config);
  /// A site whose run may use `workers` threads: with more than one, a
  /// helper thread draws the servers' service-time logs ahead while the
  /// event loop runs (SliceSet::run). Throws std::invalid_argument if
  /// `workers` < 1. The result does not depend on `workers`.
  Site(const SimulationConfig& config, int workers);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Runs warm-up + measured period; single use.
  RunResult run();

  // ---- Introspection (tests, examples) ----
  const SliceSet& slices() const { return slices_; }
  /// The slice's kernel. Stepping it directly fires no monitor tick: the
  /// ticks, and with them the alarms, the estimator and the max-utilization
  /// sample, come only from run().
  sim::Simulator& simulator() { return *slice().sim; }
  web::Cluster& cluster() { return *slice().cluster; }
  core::DnsScheduler& scheduler() { return *slice().bundle.scheduler; }
  core::DomainModel& domain_model() { return *slice().bundle.domains; }
  /// The run's monitor clock: monitor().add_full_observer(f) has run() call
  /// f once per tick, after the feedback.
  SliceSet& monitor() { return slices_; }
  core::LoadEstimator& estimator() { return *slice().estimator; }
  const workload::DomainSet& domain_set() const { return slices_.workload().domains; }
  workload::ThinkTimeModel& think_time_model() { return *slice().think; }
  /// NS `replica` (0-based) of domain `d`; throws std::out_of_range unless
  /// 0 <= d < num_domains and 0 <= replica < ns_per_domain.
  dnscache::NameServer& name_server(int d, int replica = 0);
  const SimulationConfig& config() const { return config_; }
  /// The fault layer (always constructed; empty schedule = inert).
  fault::FaultInjector& fault_injector() { return *slice().fault; }

 private:
  SiteSlice& slice() { return slices_[0]; }

  SimulationConfig config_;
  SliceSet slices_;
  int workers_ = 0;  // 0: default_jobs()
};

}  // namespace adattl::experiment
