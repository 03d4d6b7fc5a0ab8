#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
#include "fault/fault_injector.h"
#include "geo/geo_model.h"
#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/log_ring.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "web/cluster.h"
#include "web/dispatcher.h"
#include "workload/client_pool.h"
#include "workload/domain_set.h"

namespace adattl::experiment {

class ParallelExecutor;

/// Wall-clock phase breakdown of one run (host time, not simulated time).
/// Purely additive observability: simulation results never depend on it.
struct RunProfile {
  double setup_sec = 0.0;        ///< Site construction (object-graph wiring)
  double warmup_sec = 0.0;       ///< event loop up to the warm-up boundary
  double measurement_sec = 0.0;  ///< event loop over the measured period
  double collect_sec = 0.0;      ///< result aggregation after the loop
  /// Chunks of service-time logs (sim::LogRing::kChunk values each) drawn
  /// ahead by the run's helper thread, and those the event loop had to
  /// draw itself; both 0 when the run had no worker to spare for a helper
  /// (SliceSet::run). Which side drew a chunk depends on the host's timing.
  std::uint64_t helper_chunks = 0;
  std::uint64_t loop_chunks = 0;
  double total() const { return setup_sec + warmup_sec + measurement_sec + collect_sec; }
};

/// Aggregate outcome of one simulation run.
///
/// A run over more than one slice computes what depends on site-wide
/// queueing only per slice: each server replica serves at the full capacity
/// but queues only its own slice's pages (DESIGN.md §16). There, the
/// max-utilization statistics (max_util_cdf to max_util_ci_relative), the
/// response times and the per-domain latency are per-shard approximations,
/// which the reports print as not computed (reports_queueing()).
struct RunResult {
  /// Master seed the run was built with (SimulationConfig::seed) — lets
  /// replication outputs be traced back to their exact seed derivation.
  std::uint64_t seed = 0;
  sim::Histogram max_util_cdf{1.0, 500};
  double prob_below_090 = 0.0;
  double prob_below_098 = 0.0;
  double mean_max_utilization = 0.0;
  /// Within-run 95% batch-means CI of the mean max utilization, as a
  /// fraction of the mean (paper: "within 4%").
  double max_util_ci_relative = 0.0;
  std::vector<double> mean_server_util;
  /// Capacity-weighted mean utilization (≈ offered load / total capacity).
  double aggregate_utilization = 0.0;

  std::uint64_t total_pages = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t authoritative_queries = 0;
  std::uint64_t ns_cache_hits = 0;
  /// Resolutions absorbed by per-client caches (0 unless enabled).
  std::uint64_t client_cache_hits = 0;
  /// Address requests answered by the authoritative DNS per second —
  /// must match across calibrated policies (§4.1 fairness rule).
  double address_request_rate = 0.0;
  /// Fraction of page requests whose mapping decision the DNS made
  /// directly (paper: "often below 4%").
  double dns_controlled_fraction = 0.0;

  double mean_ttl = 0.0;
  std::uint64_t alarm_signals = 0;
  /// Kernel events dispatched by every slice's simulator plus the monitor
  /// ticks (one per monitor_interval_sec up to the horizon, counted once
  /// however many slices the run has).
  std::uint64_t events_dispatched = 0;

  /// Mean page response time (queueing + service) across all servers,
  /// weighted by pages served; the per-server breakdown shows how badly
  /// overload punishes the weak servers under non-adaptive policies.
  double mean_page_response_sec = 0.0;
  std::vector<double> per_server_response_sec;
  /// Site-wide response-time percentiles (merged server histograms).
  /// These are server-side times; with geography enabled, the client
  /// additionally sees mean_network_rtt_sec of flight time per page.
  double response_p50_sec = 0.0;
  double response_p95_sec = 0.0;
  double response_p99_sec = 0.0;
  /// Mean network round-trip per page (0 without a geo model).
  double mean_network_rtt_sec = 0.0;

  // ---- Latency as a first-class result (extension; geo runs) ----
  /// Mean rtt(domain, chosen server) per DNS decision — the scheduler-side
  /// latency objective, independent of how many pages ride each mapping.
  double mean_assignment_rtt_sec = 0.0;
  /// Each server's share of the total assignment RTT mass: how much of the
  /// latency bill each server is responsible for (empty without geo).
  std::vector<double> rtt_weighted_assignment_share;
  /// Per-domain client-perceived page response time (request flight +
  /// queue + service + reply flight), summarized from per-domain
  /// histograms kept by the client pool.
  struct DomainLatency {
    double p50_sec = 0.0;
    double p95_sec = 0.0;
    double p99_sec = 0.0;
    double mean_sec = 0.0;
    std::uint64_t pages = 0;
  };
  std::vector<DomainLatency> domain_latency;

  // ---- Elastic pool accounting (0 / initial size when static) ----
  /// DNS pool membership flips over the run (scripted + autoscaler).
  std::uint64_t pool_changes = 0;
  /// Autoscaler-initiated actions (subset of pool_changes).
  std::uint64_t autoscale_ups = 0;
  std::uint64_t autoscale_downs = 0;
  /// Pool size when the run ended.
  int final_pool_size = 0;

  /// Server-side redirection counters (0 unless enabled).
  std::uint64_t redirected_pages = 0;
  double redirected_fraction = 0.0;

  // ---- Failure accounting (all 0 in fault-free runs) ----
  /// Client-visible page failures: submissions rejected by a crashed
  /// server plus pages dropped (queued or in flight) by a crash.
  std::uint64_t failed_requests = 0;
  /// Pages/hits dropped by crashes across all servers.
  std::uint64_t lost_pages = 0;
  std::uint64_t lost_hits = 0;
  /// Seconds the authoritative DNS was unreachable within the horizon.
  double dns_outage_sec = 0.0;
  /// Failed page attempts over all page attempts (failed + requested);
  /// the site-level unavailability a client population experienced.
  double unavailability_fraction = 0.0;

  /// End-of-run metrics snapshot; null unless config.metrics_enabled.
  /// shared_ptr keeps RunResult cheaply copyable across sweep plumbing.
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  /// Wall-clock phase breakdown (always filled; near-zero cost).
  RunProfile profile;
};

/// The read-only inputs every slice of one run shares.
struct SiteWorkload {
  /// Validates `config` (already scaled), then derives the workload.
  explicit SiteWorkload(const SimulationConfig& config);

  /// The population the DNS is told about: its initial domain weights.
  workload::DomainSet base;
  /// The population the clients actually are: `base` plus the §5.2 rate
  /// perturbation. The gap between the two is the paper's "estimation
  /// error".
  workload::DomainSet domains;
  /// Null when geography is disabled.
  std::shared_ptr<const geo::GeoModel> geo;
};

/// The distributions behind the three metrics no component counter keeps:
/// the TTLs the scheduler hands out, the eligible-set size behind each of
/// them, and the TTLs the name servers cache. The TTL range is a generous
/// multiple of typical reference TTLs (240 s); the overflow bin catches
/// calibration blow-ups.
struct SliceHistograms {
  explicit SliceHistograms(int servers)
      : eligible(static_cast<double>(servers) + 1.0, servers + 1) {}

  sim::Histogram ttl{3600.0, 144};     ///< "scheduler.ttl_sec"
  sim::Histogram eligible;             ///< "scheduler.eligible_servers"
  sim::Histogram ns_ttl{3600.0, 144};  ///< "ns.effective_ttl_sec"
};

/// The object graph of one simulator over a subset of the domains: a
/// cluster replica, the fault injector, the DNS scheduler with its alarms
/// and autoscaler, and the name servers and pooled clients of the owned
/// domains. A Site is one slice that owns every domain; a ShardedSite is
/// one slice per shard. Components keep references into the slice, so it
/// is built in place and never moved. Public for tests and invariant
/// checkers; treat as read-only from outside.
struct SiteSlice {
  /// Builds the slice over `owned` (ascending global domain ids), drawing
  /// every random stream from `rng`. Of the config's rate shifts and trace
  /// points, only those of the owned domains are scheduled. Components
  /// record into `tracer` when it is not null.
  SiteSlice(const SimulationConfig& config, const SiteWorkload& workload,
            std::vector<int> owned, sim::RngStream rng, obs::EventTracer* tracer);

  SiteSlice(const SiteSlice&) = delete;
  SiteSlice& operator=(const SiteSlice&) = delete;

  std::vector<int> domains;  ///< owned global domain ids, ascending
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<workload::ThinkTimeModel> think;
  std::unique_ptr<web::Cluster> cluster;
  std::unique_ptr<fault::FaultInjector> fault;
  std::unique_ptr<web::PageDispatcher> dispatcher;
  std::unique_ptr<core::AlarmRegistry> alarms;
  /// Null unless autoscale_enabled.
  std::unique_ptr<core::Autoscaler> autoscaler;
  core::SchedulerBundle bundle;
  /// The run's one estimator, owned by the SliceSet; it installs into the
  /// first slice's DomainModel.
  core::LoadEstimator* estimator = nullptr;
  /// NS replicas of owned domain k live at [k*ns_per_domain, ...).
  std::vector<std::unique_ptr<dnscache::NameServer>> name_servers;
  std::vector<std::unique_ptr<dnscache::ClientCache>> client_caches;  // optional layer
  std::unique_ptr<workload::ClientPool> clients;
  /// Null unless metrics_enabled; the slice's name servers share ns_ttl.
  std::unique_ptr<SliceHistograms> histograms;
};

/// The slices of one run and what they share: the workload, the load
/// estimator, the monitor clock that drives every run, the feedback that
/// keeps every slice's DNS state identical, the max-utilization tracker,
/// and the reduction of all slices into one RunResult. A Site is the
/// one-slice layout, a ShardedSite one slice per shard; run() drives both.
class SliceSet {
 public:
  /// What one slice is built from: its owned domains (ascending global
  /// ids), the stream it draws every variate from, and the tracer its
  /// components record into (null for none).
  struct SliceSpec {
    std::vector<int> domains;
    sim::RngStream rng;
    obs::EventTracer* tracer = nullptr;
  };

  /// Called once per monitor tick, after the feedback, with the tick's
  /// time and the site-wide utilizations and queue depths (pages waiting or
  /// in service), both indexed by ServerId. Queue depths expose silent
  /// outages, which leave utilization low while the backlog grows.
  using FullObserver = std::function<void(sim::SimTime, const std::vector<double>&,
                                          const std::vector<std::size_t>&)>;

  /// Validates `config` (already scaled; it must outlive the set) and
  /// derives the shared workload. The run's setup time counts from here to
  /// the end of build().
  explicit SliceSet(const SimulationConfig& config);

  /// Builds every slice of the run (call once, with at least one spec):
  /// slice i is built in place from specs[i], one task per slice on
  /// `pool`. Slices share nothing mutable while they are built (the config
  /// and workload are read-only), so the set does not depend on the pool's
  /// width or on which task ran first. After the join, the run's estimator
  /// is made over the first slice's DomainModel and given to every slice.
  /// The first slice's tracer also records the site-wide utilizations and
  /// estimator updates of every tick.
  void build(std::vector<SliceSpec> specs, ParallelExecutor& pool);

  int size() const { return static_cast<int>(slices_.size()); }
  SiteSlice& operator[](int i) { return *slices_.at(static_cast<std::size_t>(i)); }
  const SiteSlice& operator[](int i) const { return *slices_.at(static_cast<std::size_t>(i)); }
  const SiteWorkload& workload() const { return workload_; }

  /// Registers `observer` for every monitor tick of run().
  void add_full_observer(FullObserver observer) { observers_.push_back(std::move(observer)); }

  /// Runs warm-up plus the measured period and returns the run's result;
  /// single use (a second call throws std::logic_error).
  ///
  /// The slices advance on `pool`, one task per slice, to the next monitor
  /// tick or the horizon, whichever comes first. At each tick the calling
  /// thread merges the site-wide view, in slice order: a server's
  /// utilization is the sum of its replicas' busy-time deltas over the tick
  /// divided by the interval (over several slices clamped at 1, since
  /// replicas with the full capacity can overlap in time), and its queue
  /// depth the sum of theirs. The tracer records that view, every slice's
  /// alarm registry, then its autoscaler, observes it, the tracker samples
  /// it, and on every estimator_collect_every_ticks-th tick the per-domain
  /// hits drained from all slices are summed and fed to the estimator,
  /// whose new weights, if it installs any, are copied into every other
  /// slice's DomainModel. The observers run last. Tick times accumulate by
  /// repeated addition from 0, and run_until is inclusive, so a tick that
  /// lands on the horizon fires. Merges run in fixed order on one thread,
  /// so the result does not depend on the pool's width.
  ///
  /// When the pool has more jobs than the set has slices, the spare core
  /// draws the servers' service-time logs ahead: every server is handed a
  /// sim::LogRing of its own stream, and one helper thread keeps the rings
  /// filled until the event loop ends or throws (DESIGN.md §18). The
  /// rings give the values the servers would have drawn themselves, so
  /// this changes no result either.
  RunResult run(ParallelExecutor& pool);

 private:
  /// One monitor tick at `now`, after every slice has run to it.
  void monitor_tick(sim::SimTime now);

  /// The run's results over [0, horizon]: counters summed and statistics
  /// merged over the slices in order. Per-domain latency comes from the
  /// slice that owns the domain. Alarm, pool and DNS-outage figures are
  /// the same in every slice, so the first one reports them. With
  /// metrics_enabled the result carries metrics_snapshot(result).
  RunResult reduce(double horizon) const;

  /// The end-of-run metrics, read from the same component counters the
  /// reducer reads: what the slices split is summed over them in order
  /// (one slice reproduces its own figures bit for bit), what every slice
  /// replicates (alarms, fault events) comes from the first, and the rest
  /// from `r`.
  obs::MetricsSnapshot metrics_snapshot(const RunResult& r) const;

  const SimulationConfig& config_;
  obs::Stopwatch setup_watch_;  // started first: the setup time covers the workload
  SiteWorkload workload_;
  std::vector<std::unique_ptr<SiteSlice>> slices_;
  std::unique_ptr<core::LoadEstimator> estimator_;
  obs::EventTracer* tracer_ = nullptr;  // the first slice's
  MaxUtilizationTracker tracker_;
  std::vector<FullObserver> observers_;
  /// The servers' service-time rings; made by run() when it has a helper,
  /// and kept with the slices, whose servers draw through them for good.
  std::unique_ptr<sim::LogRings> log_rings_;
  /// Per slice, per server: cumulative busy time at the previous tick.
  std::vector<std::vector<double>> prev_busy_;
  double setup_sec_ = 0.0;
  std::uint64_t ticks_ = 0;
  bool ran_ = false;
};

}  // namespace adattl::experiment
