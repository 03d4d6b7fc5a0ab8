#include "experiment/sharded_site.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/profiler.h"

namespace adattl::experiment {

namespace {

/// Greedy largest-first partition of per-domain offered load over
/// `num_shards` shards: domains are visited by decreasing load (lower id
/// first on ties) and each goes to the least-loaded shard so far (lowest
/// index first on ties). Returns the domain → shard owner map.
std::vector<int> partition_by_load(const std::vector<double>& load, int num_shards) {
  std::vector<int> order(load.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&load](int a, int b) {
    return load[static_cast<std::size_t>(a)] > load[static_cast<std::size_t>(b)];
  });
  std::vector<double> shard_load(static_cast<std::size_t>(num_shards), 0.0);
  std::vector<int> owner(load.size(), 0);
  for (int d : order) {
    const auto lightest = std::min_element(shard_load.begin(), shard_load.end());
    owner[static_cast<std::size_t>(d)] = static_cast<int>(lightest - shard_load.begin());
    *lightest += load[static_cast<std::size_t>(d)];
  }
  return owner;
}

}  // namespace

ShardedSite::ShardedSite(const SimulationConfig& config)
    : config_(config.scaled()), rng_(config_.seed) {
  obs::Stopwatch setup_watch;
  config_.validate();
  if (!config_.shard_domains) {
    throw std::invalid_argument("ShardedSite: config.shard_domains must be set");
  }

  // ---- Workload population (global view; same derivation as Site) ----
  const workload::DomainSet base =
      config_.uniform_clients
          ? workload::make_uniform_domains(config_.num_domains, config_.total_clients,
                                           config_.mean_think_sec)
          : workload::make_zipf_domains(config_.num_domains, config_.total_clients,
                                        config_.mean_think_sec, config_.zipf_theta);
  domains_ = base;
  if (config_.rate_perturbation_percent > 0.0) {
    workload::apply_rate_perturbation(domains_, config_.rate_perturbation_percent);
  }

  // ---- Geography (shared, immutable) ----
  const int num_servers = config_.cluster.size();
  if (config_.geo_regions > 0) {
    geo_ = std::make_shared<const geo::GeoModel>(
        geo::GeoModel::regions(config_.num_domains, num_servers, config_.geo_regions,
                               config_.geo_intra_rtt_sec, config_.geo_inter_rtt_sec));
  }

  // ---- Failure schedule (identical copy driven inside every shard) ----
  fault::FaultSchedule schedule;
  for (const ServerOutage& outage : config_.outages) {
    schedule.pauses.push_back(
        fault::PauseWindow{outage.start_sec, outage.duration_sec, outage.server});
  }
  schedule.merge(config_.faults);

  // ---- Shard layout: offered load balanced over min(S, D) shards ----
  const int num_shards = std::min(config_.shard_count, config_.num_domains);
  owner_ = partition_by_load(domains_.true_weights(), num_shards);
  // Each shard schedules only the trace points of the domains it owns, in
  // trace order.
  std::vector<std::vector<workload::TraceEvent>> trace_slices(
      static_cast<std::size_t>(num_shards));
  for (const workload::TraceEvent& ev : config_.trace_events) {
    trace_slices[static_cast<std::size_t>(owner(ev.domain))].push_back(ev);
  }
  shards_.reserve(static_cast<std::size_t>(num_shards));

  dnscache::NsTtlBehavior ns_behavior;
  ns_behavior.min_accepted_sec = config_.ns_min_ttl_sec;
  dnscache::NsRetryPolicy ns_retry;
  ns_retry.initial_backoff_sec = config_.ns_retry_initial_backoff_sec;
  ns_retry.max_backoff_sec = config_.ns_retry_max_backoff_sec;

  for (int s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // One split per shard, in shard order, from the master stream: the
    // derivation depends only on (seed, shard index), never on worker
    // count or interleaving.
    shard->rng = rng_.split();
    for (int d = 0; d < config_.num_domains; ++d) {
      if (owner(d) == s) shard->domains.push_back(d);
    }

    int shard_clients = 0;
    for (int d : shard->domains) {
      shard_clients += domains_.clients[static_cast<std::size_t>(d)];
    }

    shard->sim = std::make_unique<sim::Simulator>();
    shard->sim->reserve(2 * static_cast<std::size_t>(shard_clients) + 64);

    // Each shard carries a full think-time table (domain ids are global);
    // scripted rate shifts and trace points fire only in the owning
    // shard's simulator.
    shard->think = std::make_unique<workload::ThinkTimeModel>(domains_.mean_think_sec);
    for (const workload::RateShift& shift : config_.rate_shifts) {
      if (owner(shift.domain) != s) continue;
      workload::ThinkTimeModel* think = shard->think.get();
      shard->sim->at(shift.at_sec, sim::assert_inline([think, shift] {
                       think->scale_rate(shift.domain, shift.rate_factor);
                     }));
    }
    workload::schedule_trace(*shard->sim, *shard->think,
                             trace_slices[static_cast<std::size_t>(s)]);

    // Full-capacity cluster replica: service times are exact; cross-shard
    // queueing contention is under-modeled (see class comment).
    shard->cluster = std::make_unique<web::Cluster>(*shard->sim, config_.cluster,
                                                    config_.num_domains, shard->rng);
    shard->fault =
        std::make_unique<fault::FaultInjector>(*shard->sim, *shard->cluster, schedule);
    shard->dispatcher = std::make_unique<web::DirectDispatcher>(*shard->cluster);

    shard->alarms = std::make_unique<core::AlarmRegistry>(
        shard->cluster->size(), config_.alarm_threshold, config_.alarm_enabled,
        config_.alarm_queue_threshold);
    shard->fault->set_alarm_registry(shard->alarms.get());
    if (config_.autoscale_enabled) {
      core::Autoscaler::Config ac;
      ac.high_watermark = config_.autoscale_high_watermark;
      ac.low_watermark = config_.autoscale_low_watermark;
      ac.hysteresis_ticks = config_.autoscale_hysteresis_ticks;
      ac.min_servers = config_.autoscale_min_servers;
      shard->autoscaler = std::make_unique<core::Autoscaler>(*shard->alarms, ac);
    }

    core::SchedulerFactoryConfig fc;
    fc.capacities = shard->cluster->capacities();
    fc.initial_weights =
        (config_.estimator_cold_start && !config_.oracle_weights)
            ? std::vector<double>(static_cast<std::size_t>(config_.num_domains), 1.0)
            : base.true_weights();
    fc.class_threshold = config_.effective_class_threshold();
    fc.reference_ttl = config_.reference_ttl_sec;
    fc.calibrate_ttl = config_.calibrate_ttl;
    fc.geo = geo_;
    shard->bundle =
        core::make_scheduler(config_.policy, fc, *shard->alarms, *shard->sim, shard->rng);

    const bool seed_from_model = config_.estimator_cold_start && !config_.oracle_weights;
    switch (config_.estimator_kind) {
      case EstimatorKind::kEwma:
        shard->estimator = std::make_unique<core::EwmaLoadEstimator>(
            *shard->bundle.domains, config_.estimator_smoothing, config_.oracle_weights,
            seed_from_model);
        break;
      case EstimatorKind::kSlidingWindow:
        shard->estimator = std::make_unique<core::SlidingWindowLoadEstimator>(
            *shard->bundle.domains, config_.estimator_window_count, config_.oracle_weights);
        break;
      case EstimatorKind::kHoltWinters:
        shard->estimator = std::make_unique<core::HoltWintersLoadEstimator>(
            *shard->bundle.domains, config_.estimator_smoothing, config_.estimator_trend,
            config_.oracle_weights, seed_from_model);
        break;
      case EstimatorKind::kAr:
        shard->estimator = std::make_unique<core::ArLoadEstimator>(
            *shard->bundle.domains, config_.estimator_ar_order, config_.oracle_weights);
        break;
    }

    shard->name_servers.reserve(shard->domains.size() *
                                static_cast<std::size_t>(config_.ns_per_domain));
    for (int d : shard->domains) {
      for (int m = 0; m < config_.ns_per_domain; ++m) {
        (void)m;
        shard->name_servers.push_back(std::make_unique<dnscache::NameServer>(
            *shard->sim, d, *shard->bundle.scheduler, ns_behavior));
        if (!shard->fault->dns_calendar().empty()) {
          shard->name_servers.back()->set_dns_outages(&shard->fault->dns_calendar(),
                                                      ns_retry);
        }
      }
    }

    sim::RngStream client_seeds = shard->rng.split();
    sim::RngStream stagger = shard->rng.split();
    shard->clients = std::make_unique<workload::ClientPool>(
        *shard->sim, *shard->dispatcher, config_.session, *shard->think, geo_.get(),
        config_.client_retry_delay_sec);
    shard->clients->reserve(static_cast<std::size_t>(shard_clients));
    for (std::size_t k = 0; k < shard->domains.size(); ++k) {
      const auto dd = static_cast<std::size_t>(shard->domains[k]);
      for (int c = 0; c < domains_.clients[dd]; ++c) {
        dnscache::NameServer& ns =
            *shard->name_servers[k * static_cast<std::size_t>(config_.ns_per_domain) +
                                 static_cast<std::size_t>(c % config_.ns_per_domain)];
        dnscache::Resolver* resolver = &ns;
        if (config_.client_cache_enabled) {
          shard->client_caches.push_back(
              std::make_unique<dnscache::ClientCache>(*shard->sim, ns));
          resolver = shard->client_caches.back().get();
        }
        const std::size_t idx = shard->clients->add(*resolver, client_seeds.split());
        shard->clients->start(idx, stagger.uniform(0.0, config_.mean_think_sec));
      }
    }

    // Cumulative busy time is 0 at t = 0, matching MonitorHub::start().
    shard->prev_busy.assign(static_cast<std::size_t>(shard->cluster->size()), 0.0);
    shards_.push_back(std::move(shard));
  }

  tracker_ = std::make_unique<MaxUtilizationTracker>(num_servers, config_.warmup_sec);
  setup_seconds_ = setup_watch.elapsed();
}

void ShardedSite::monitor_tick(double now) {
  // Merge phase — fixed shard order on the caller's thread. A server's
  // site-wide utilization is the sum of its replicas' busy fractions over
  // the tick (clamped at 1: replicas can overlap in time since each has
  // the full capacity); queue depths sum.
  const std::size_t num_servers = shards_.front()->prev_busy.size();
  std::vector<double> util(num_servers, 0.0);
  std::vector<std::size_t> queues(num_servers, 0);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < num_servers; ++i) {
      const double busy =
          shard->cluster->server(static_cast<int>(i)).cumulative_busy_time(now);
      util[i] += (busy - shard->prev_busy[i]) / config_.monitor_interval_sec;
      shard->prev_busy[i] = busy;
      queues[i] += shard->cluster->server(static_cast<int>(i)).queue_length();
    }
  }
  for (double& u : util) u = std::min(u, 1.0);

  // Every shard's alarm registry sees the same merged site view, so all
  // scheduler replicas agree on which servers are alarmed. The autoscaler
  // replicas observe the same view right after their registry, so every
  // shard reaches the same pool decision at the same tick.
  for (const auto& shard : shards_) {
    shard->alarms->observe_full(now, util, queues);
    if (shard->autoscaler) shard->autoscaler->observe(util);
  }
  tracker_->observe(now, util);

  if (!config_.oracle_weights && ++ticks_ % config_.estimator_collect_every_ticks == 0) {
    const double window_sec =
        config_.monitor_interval_sec * config_.estimator_collect_every_ticks;
    std::vector<std::uint64_t> total(static_cast<std::size_t>(config_.num_domains), 0);
    for (const auto& shard : shards_) {
      for (int s = 0; s < shard->cluster->size(); ++s) {
        const std::vector<std::uint64_t> part =
            shard->cluster->server(s).drain_domain_hits();
        for (std::size_t d = 0; d < total.size(); ++d) total[d] += part[d];
      }
    }
    // Identical feed to every estimator → identical domain weights in
    // every scheduler replica.
    for (const auto& shard : shards_) {
      shard->estimator->observe(total, window_sec);
    }
  }
}

RunResult ShardedSite::run(ParallelExecutor& executor) {
  if (ran_) throw std::logic_error("ShardedSite::run: a ShardedSite is single-use");
  ran_ = true;

  obs::Stopwatch phase_watch;
  double warmup_wall = 0.0;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  const double interval = config_.monitor_interval_sec;

  // Phase-barrier loop: shards advance in parallel to the next monitor
  // tick (or the horizon), then the caller merges. Tick times accumulate
  // by repeated addition — the same float sequence MonitorHub's
  // after(interval) chaining produces.
  std::vector<std::function<void()>> tasks(shards_.size());
  double next_tick = interval;
  bool warmup_lapped = false;
  while (true) {
    const double target = std::min(next_tick, horizon);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard* shard = shards_[s].get();
      tasks[s] = [shard, target] { shard->sim->run_until(target); };
    }
    executor.run(tasks);
    if (!warmup_lapped && target >= config_.warmup_sec) {
      warmup_wall = phase_watch.lap();
      warmup_lapped = true;
    }
    // run_until is inclusive, so a tick landing exactly on the horizon
    // fires — the same boundary behavior as Site's final MonitorHub tick.
    if (next_tick <= horizon && target == next_tick) {
      monitor_tick(next_tick);
      next_tick += interval;
    }
    if (target >= horizon) break;
  }
  const double measurement_wall = phase_watch.lap();

  RunResult r = aggregate(horizon);
  r.profile.setup_sec = setup_seconds_;
  r.profile.warmup_sec = warmup_wall;
  r.profile.measurement_sec = measurement_wall;
  r.profile.collect_sec = phase_watch.lap();
  return r;
}

RunResult ShardedSite::run() {
  ParallelExecutor executor;
  return run(executor);
}

RunResult ShardedSite::aggregate(double horizon) {
  RunResult r;
  r.seed = config_.seed;
  r.max_util_cdf = tracker_->cdf();
  r.prob_below_090 = tracker_->prob_below(0.90);
  r.prob_below_098 = tracker_->prob_below(0.98);
  r.mean_max_utilization = tracker_->mean_max_utilization();
  r.max_util_ci_relative = tracker_->batch_means().relative_halfwidth();
  r.mean_server_util = tracker_->mean_utilizations();

  const std::vector<double>& cap = shards_.front()->cluster->capacities();
  const double total_cap = std::accumulate(cap.begin(), cap.end(), 0.0);
  for (std::size_t i = 0; i < cap.size(); ++i) {
    r.aggregate_utilization += r.mean_server_util[i] * cap[i] / total_cap;
  }

  double network_time = 0.0;
  sim::RunningStat ttl_stat;
  std::vector<sim::RunningStat> response(cap.size());
  sim::Histogram site_response(30.0, 3000);
  for (const auto& shard : shards_) {
    const workload::ClientPool::Totals totals = shard->clients->totals();
    r.total_pages += totals.pages;
    network_time += totals.network_time_sec;
    for (int s = 0; s < shard->cluster->size(); ++s) {
      const web::WebServer& server =
          static_cast<const web::Cluster&>(*shard->cluster).server(s);
      r.total_hits += server.hits_served();
      response[static_cast<std::size_t>(s)].merge(server.response_time());
      site_response.merge(server.response_histogram());
    }
    for (const auto& ns : shard->name_servers) {
      r.authoritative_queries += ns->authoritative_queries();
      r.ns_cache_hits += ns->cache_hits();
    }
    for (const auto& cc : shard->client_caches) r.client_cache_hits += cc->hits();
    ttl_stat.merge(shard->bundle.scheduler->ttl_stat());
    r.events_dispatched += shard->sim->events_dispatched();
    r.lost_pages += shard->cluster->total_lost_pages();
    r.lost_hits += shard->cluster->total_lost_hits();
    r.failed_requests += shard->cluster->total_lost_pages() +
                         shard->cluster->total_rejected_pages();
  }
  r.mean_network_rtt_sec =
      r.total_pages ? network_time / static_cast<double>(r.total_pages) : 0.0;
  r.address_request_rate = static_cast<double>(r.authoritative_queries) / horizon;
  r.dns_controlled_fraction =
      r.total_pages ? static_cast<double>(r.authoritative_queries) /
                          static_cast<double>(r.total_pages)
                    : 0.0;

  double response_weighted = 0.0;
  std::uint64_t response_pages = 0;
  for (const sim::RunningStat& rt : response) {
    r.per_server_response_sec.push_back(rt.mean());
    response_weighted += rt.mean() * static_cast<double>(rt.count());
    response_pages += rt.count();
  }
  r.mean_page_response_sec =
      response_pages ? response_weighted / static_cast<double>(response_pages) : 0.0;
  r.response_p50_sec = site_response.quantile(0.50);
  r.response_p95_sec = site_response.quantile(0.95);
  r.response_p99_sec = site_response.quantile(0.99);

  // ---- Latency as a first-class result (summed across the split
  // per-shard decision streams) ----
  if (geo_) {
    std::uint64_t decisions = 0;
    double rtt_total = 0.0;
    std::vector<double> per_server(cap.size(), 0.0);
    for (const auto& shard : shards_) {
      decisions += shard->bundle.scheduler->decisions();
      rtt_total += shard->bundle.scheduler->assignment_rtt_sum_sec();
      const std::vector<double>& part =
          shard->bundle.scheduler->per_server_assignment_rtt_sec();
      for (std::size_t i = 0; i < per_server.size(); ++i) per_server[i] += part[i];
    }
    if (decisions > 0) {
      r.mean_assignment_rtt_sec = rtt_total / static_cast<double>(decisions);
      r.rtt_weighted_assignment_share.resize(per_server.size(), 0.0);
      if (rtt_total > 0.0) {
        for (std::size_t i = 0; i < per_server.size(); ++i) {
          r.rtt_weighted_assignment_share[i] = per_server[i] / rtt_total;
        }
      }
    }
  }
  // Every domain's clients live in exactly one shard, so each per-domain
  // histogram comes from its owning shard verbatim.
  r.domain_latency.reserve(static_cast<std::size_t>(config_.num_domains));
  for (int d = 0; d < config_.num_domains; ++d) {
    const sim::Histogram& h =
        shards_[static_cast<std::size_t>(owner(d))]->clients->domain_response_histogram(d);
    RunResult::DomainLatency dl;
    dl.pages = h.count();
    if (dl.pages > 0) {
      dl.p50_sec = h.quantile(0.50);
      dl.p95_sec = h.quantile(0.95);
      dl.p99_sec = h.quantile(0.99);
      dl.mean_sec = h.mean();
    }
    r.domain_latency.push_back(dl);
  }

  // ---- Elastic pool accounting: all replicas agree; report shard 0's ----
  r.pool_changes = shards_.front()->alarms->pool_changes();
  r.final_pool_size = shards_.front()->alarms->pool_size();
  if (shards_.front()->autoscaler) {
    r.autoscale_ups = shards_.front()->autoscaler->scale_up_actions();
    r.autoscale_downs = shards_.front()->autoscaler->scale_down_actions();
  }

  r.mean_ttl = ttl_stat.mean();
  // All alarm registries saw identical merged data; report shard 0's.
  r.alarm_signals = shards_.front()->alarms->alarm_signals() +
                    shards_.front()->alarms->normal_signals();
  r.dns_outage_sec = shards_.front()->fault->dns_calendar().outage_seconds(horizon);
  const double attempts =
      static_cast<double>(r.failed_requests) + static_cast<double>(r.total_pages);
  r.unavailability_fraction =
      attempts > 0 ? static_cast<double>(r.failed_requests) / attempts : 0.0;
  return r;
}

}  // namespace adattl::experiment
