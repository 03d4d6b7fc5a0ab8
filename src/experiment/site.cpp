#include "experiment/site.h"

#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "experiment/parallel_executor.h"
#include "obs/profiler.h"

namespace adattl::experiment {

Site::Site(const SimulationConfig& config) : config_(config.scaled()), slices_(config_) {
  obs::Stopwatch setup_watch;
  if (config_.shard_domains) {
    throw std::invalid_argument("Site: shard_domains configs require ShardedSite");
  }

  // The tracer exists only when asked for; every component takes a
  // nullable pointer, so the disabled path costs one null check.
  if (config_.trace_enabled) {
    event_tracer_ = std::make_unique<obs::EventTracer>(config_.trace_capacity);
  }

  // One slice owns every domain and draws from the master stream itself;
  // a one-job pool builds it on this thread.
  std::vector<int> all(static_cast<std::size_t>(config_.num_domains));
  std::iota(all.begin(), all.end(), 0);
  ParallelExecutor caller(1);
  slices_.build({{std::move(all), sim::RngStream(config_.seed), event_tracer_.get()}}, caller);
  SiteSlice& s = slice();

  // ---- Monitoring: alarms and estimation on the 8 s clock ----
  monitor_ = std::make_unique<web::MonitorHub>(*s.sim, *s.cluster, config_.monitor_interval_sec);
  monitor_->add_full_observer([this](sim::SimTime now, const std::vector<double>& util,
                                     const std::vector<std::size_t>& queues) {
    if (event_tracer_) {
      for (std::size_t i = 0; i < util.size(); ++i) {
        event_tracer_->record(now, obs::TraceKind::kUtilization, static_cast<std::int32_t>(i),
                              0, util[i]);
      }
    }
    const double window_sec = slices_.feedback_tick(now, util, queues);
    if (window_sec > 0 && event_tracer_) {
      event_tracer_->record(now, obs::TraceKind::kEstimatorUpdate,
                            slice().estimator->windows_observed(), 0, window_sec);
    }
  });
  monitor_->start();
  setup_seconds_ = setup_watch.elapsed();
}

dnscache::NameServer& Site::name_server(int d, int replica) {
  if (d < 0 || d >= config_.num_domains || replica < 0 || replica >= config_.ns_per_domain) {
    throw std::out_of_range("Site::name_server: no such domain or NS replica");
  }
  return *slice().name_servers[static_cast<std::size_t>(d * config_.ns_per_domain + replica)];
}

RunResult Site::run() {
  if (ran_) throw std::logic_error("Site::run: a Site is single-use");
  ran_ = true;

  // The split at the warm-up boundary is bit-identical to one run_until
  // call over the full horizon: events scheduled exactly at the boundary
  // execute in the first leg either way. It exists only to attribute wall
  // time to the warm-up vs measured phases.
  obs::Stopwatch phase_watch;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  sim::Simulator& sim = simulator();
  sim.run_until(config_.warmup_sec);
  const double warmup_wall = phase_watch.lap();
  sim.run_until(horizon);
  const double measurement_wall = phase_watch.lap();

  RunResult r = slices_.reduce(horizon);
  r.profile = {setup_seconds_, warmup_wall, measurement_wall, phase_watch.lap()};
  return r;
}

}  // namespace adattl::experiment
