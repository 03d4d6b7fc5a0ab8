#pragma once

#include <memory>
#include <vector>

#include "core/alarm_registry.h"
#include "core/autoscaler.h"
#include "core/load_estimator.h"
#include "core/policy_factory.h"
#include "dnscache/client_cache.h"
#include "dnscache/name_server.h"
#include "experiment/config.h"
#include "experiment/metrics.h"
#include "experiment/parallel_executor.h"
#include "experiment/site.h"
#include "fault/fault_injector.h"
#include "geo/geo_model.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "web/cluster.h"
#include "web/dispatcher.h"
#include "workload/client_pool.h"
#include "workload/domain_set.h"

namespace adattl::experiment {

/// Domain-sharded parallel-in-one-run mode (DESIGN.md §16).
///
/// Clients in different domains interact only through two channels: the
/// DNS estimator/alarm state (updated on the monitor clock) and the shared
/// servers. ShardedSite exploits that: the domains are partitioned over N
/// shards, each shard owning a private simulator with its own scheduler
/// replica, cluster replica, name servers and pooled clients for its
/// domains.
///
/// The partition balances offered load, not domain counts: domains are
/// visited heaviest first by their hidden load weight (clients / think
/// time, lower id first on ties) and each goes to the shard with the least
/// load so far (lowest index on ties). Round-robin placement would repeat
/// the paper's own problem on the shards — with 20 Zipf(1) domains on 4
/// shards, `d % 4` puts 40.2% of the load on shard 0, while largest-first
/// gives domain 0 (27.8%) a shard to itself. One domain→shard owner map
/// routes everything per-domain: the layout, scripted rate shifts, trace
/// points and the per-domain latency lookup.
///
/// Shards advance independently between monitor ticks; at every tick all
/// shards stop on a phase barrier and the main thread — in fixed shard
/// order — merges server busy-time deltas and queue depths into site-wide
/// utilizations, feeds the SAME merged view to every shard's alarm
/// registry and (summed drained hit counters) to every shard's estimator,
/// so all scheduler replicas evolve identical feedback state.
///
/// Determinism: shards share no mutable state between barriers and every
/// merge runs in fixed shard order on the caller's thread, so a run is
/// bit-identical across repeats at a fixed seed and shard count — whatever
/// the worker count (ADATTL_JOBS=1 and =8 produce the same bytes).
///
/// Modeling caveats vs the unsharded Site (documented, intentional):
/// each shard's cluster replica has the full per-server capacity, so
/// service times are exact but cross-shard queueing contention is
/// under-modeled — a server's merged utilization is the sum of its
/// replicas' busy fractions (clamped at 1), while queueing delay is
/// computed per shard against that shard's share of the load. The DNS
/// decision stream is split per shard (each shard's replica schedules its
/// own domains with its own RNG), so decisions differ from the unsharded
/// run's single stream. Sharded results are therefore an approximation of
/// the same model, not a bit-compatible replay of Site.
class ShardedSite {
 public:
  /// One shard: a self-contained slice of the simulation owning every
  /// mutable object its domains touch. Public for tests/invariant
  /// checkers; treat as read-only from outside.
  struct Shard {
    sim::RngStream rng{0};
    std::vector<int> domains;  ///< owned global domain ids, ascending
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<workload::ThinkTimeModel> think;
    std::unique_ptr<web::Cluster> cluster;
    std::unique_ptr<fault::FaultInjector> fault;
    std::unique_ptr<web::PageDispatcher> dispatcher;
    std::unique_ptr<core::AlarmRegistry> alarms;
    /// Per-shard autoscaler replica (null unless autoscale_enabled). Every
    /// replica observes the same merged utilization view in the same
    /// order, so all shards take identical pool actions at every tick.
    std::unique_ptr<core::Autoscaler> autoscaler;
    core::SchedulerBundle bundle;
    std::unique_ptr<core::LoadEstimator> estimator;
    /// NS replicas of owned domain k live at [k*ns_per_domain, ...).
    std::vector<std::unique_ptr<dnscache::NameServer>> name_servers;
    std::vector<std::unique_ptr<dnscache::ClientCache>> client_caches;
    std::unique_ptr<workload::ClientPool> clients;
    /// Per-server cumulative busy time at the previous barrier.
    std::vector<double> prev_busy;
  };

  /// `config.shard_domains` must be set; `scale` is applied first. The
  /// shard count is config.shard_count clamped to num_domains; it never
  /// depends on the host or on ADATTL_JOBS.
  explicit ShardedSite(const SimulationConfig& config);

  ShardedSite(const ShardedSite&) = delete;
  ShardedSite& operator=(const ShardedSite&) = delete;

  /// Runs warm-up + measured period across `executor`; single use.
  RunResult run(ParallelExecutor& executor);
  /// run() on a fresh executor sized by ADATTL_JOBS.
  RunResult run();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int s) { return *shards_.at(static_cast<std::size_t>(s)); }
  /// Index of the shard that owns global domain `d`.
  int owner(int d) const { return owner_.at(static_cast<std::size_t>(d)); }
  const SimulationConfig& config() const { return config_; }
  const workload::DomainSet& domain_set() const { return domains_; }
  MaxUtilizationTracker& tracker() { return *tracker_; }

 private:
  void monitor_tick(double now);
  RunResult aggregate(double horizon);

  SimulationConfig config_;
  sim::RngStream rng_;
  workload::DomainSet domains_;  // perturbed (actual) workload, global view
  std::shared_ptr<const geo::GeoModel> geo_;
  std::vector<int> owner_;  // global domain id → owning shard index
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<MaxUtilizationTracker> tracker_;
  int ticks_ = 0;
  double setup_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
