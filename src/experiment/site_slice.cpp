#include "experiment/site_slice.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>

#include "experiment/parallel_executor.h"

namespace adattl::experiment {

SiteWorkload::SiteWorkload(const SimulationConfig& config) {
  config.validate();
  base = config.uniform_clients
             ? workload::make_uniform_domains(config.num_domains, config.total_clients,
                                              config.mean_think_sec)
             : workload::make_zipf_domains(config.num_domains, config.total_clients,
                                           config.mean_think_sec, config.zipf_theta);
  domains = base;
  if (config.rate_perturbation_percent > 0.0) {
    workload::apply_rate_perturbation(domains, config.rate_perturbation_percent);
  }
  if (config.geo_regions > 0) {
    geo = std::make_shared<const geo::GeoModel>(
        geo::GeoModel::regions(config.num_domains, config.cluster.size(), config.geo_regions,
                               config.geo_intra_rtt_sec, config.geo_inter_rtt_sec));
  }
}

namespace {

// Values per server in a run's service-time rings (16 KiB each): half a
// ring, the helper's refill mark, is about a hundred pages of the paper's
// 5-15 hits.
constexpr std::uint32_t kLogRingValues = 2048;

// Cold-started estimators seed from the installed uniform prior instead of
// anchoring on whatever the first measured window happens to hold.
bool cold_start(const SimulationConfig& config) {
  return config.estimator_cold_start && !config.oracle_weights;
}

/// The run's estimator, over `model` (the first slice's DomainModel).
std::unique_ptr<core::LoadEstimator> make_estimator(const SimulationConfig& config,
                                                    core::DomainModel& model) {
  switch (config.estimator_kind) {
    case EstimatorKind::kEwma:
      return std::make_unique<core::EwmaLoadEstimator>(model, config.estimator_smoothing,
                                                       config.oracle_weights, cold_start(config));
    case EstimatorKind::kSlidingWindow:
      return std::make_unique<core::SlidingWindowLoadEstimator>(
          model, config.estimator_window_count, config.oracle_weights);
    case EstimatorKind::kHoltWinters:
      return std::make_unique<core::HoltWintersLoadEstimator>(
          model, config.estimator_smoothing, config.estimator_trend, config.oracle_weights,
          cold_start(config));
    case EstimatorKind::kAr:
      return std::make_unique<core::ArLoadEstimator>(model, config.estimator_ar_order,
                                                     config.oracle_weights);
  }
  throw std::invalid_argument("SliceSet: unknown estimator kind");
}

}  // namespace

// The build order below is the event insertion order (and thus the
// same-timestamp FIFO ties) and the RNG split order the goldens pin.
SiteSlice::SiteSlice(const SimulationConfig& config, const SiteWorkload& workload,
                     std::vector<int> owned, sim::RngStream rng)
    : domains(std::move(owned)), sim(std::make_unique<sim::Simulator>()) {
  const auto owns = [this](int d) { return std::binary_search(domains.begin(), domains.end(), d); };
  std::size_t num_clients = 0;
  for (int d : domains) num_clients += workload.domains.clients[static_cast<std::size_t>(d)];

  // Steady state holds roughly one in-flight event per client (think timer
  // or service leg) plus TTL expiries; pre-sizing the kernel keeps its
  // queue from growing inside the event loop. What the loop still
  // allocates does not grow with the pages served: a few vectors per
  // monitor tick, and a server's job ring when its queue first reaches a
  // new power of two.
  sim->reserve(2 * num_clients + 64);

  // ---- Workload dynamics ----
  // Every slice carries a full think-time table (domain ids are global).
  // Scripted flash crowds and trace points fire as simulator events in the
  // slice that owns their domain; the DNS only learns of them through the
  // estimator (if enabled).
  think = std::make_unique<workload::ThinkTimeModel>(workload.domains.mean_think_sec);
  for (const workload::RateShift& shift : config.rate_shifts) {
    if (!owns(shift.domain)) continue;
    workload::ThinkTimeModel* t = think.get();
    sim->at(shift.at_sec, [t, shift] { t->scale_rate(shift.domain, shift.rate_factor); });
  }
  std::vector<workload::TraceEvent> trace;
  std::copy_if(config.trace_events.begin(), config.trace_events.end(), std::back_inserter(trace),
               [&owns](const workload::TraceEvent& ev) { return owns(ev.domain); });
  workload::schedule_trace(*sim, *think, trace);

  // ---- Servers, faults and server-side dispatch ----
  // The cluster replica has the full per-server capacity (DESIGN.md §16).
  cluster = std::make_unique<web::Cluster>(*sim, config.cluster, config.num_domains, rng);
  fault = std::make_unique<fault::FaultInjector>(*sim, *cluster, config.faults);
  if (config.redirect_enabled) {
    dispatcher = std::make_unique<web::RedirectingDispatcher>(
        *sim, *cluster, config.redirect_max_wait_sec, config.redirect_delay_sec,
        config.session.mean_hits_per_page());
  } else {
    dispatcher = std::make_unique<web::DirectDispatcher>(*cluster);
  }

  // ---- DNS scheduler ----
  alarms = std::make_unique<core::AlarmRegistry>(cluster->size(), config.alarm_threshold,
                                                 config.alarm_enabled,
                                                 config.alarm_queue_threshold);
  // Crash events mark servers down in the registry (hard health facts,
  // independent of the utilization alarms — works even with --no-alarm).
  fault->set_alarm_registry(alarms.get());
  if (config.autoscale_enabled) {
    core::Autoscaler::Config ac;
    ac.high_watermark = config.autoscale_high_watermark;
    ac.low_watermark = config.autoscale_low_watermark;
    ac.hysteresis_ticks = config.autoscale_hysteresis_ticks;
    ac.min_servers = config.autoscale_min_servers;
    autoscaler = std::make_unique<core::Autoscaler>(*alarms, ac);
  }
  core::SchedulerFactoryConfig fc;
  fc.capacities = cluster->capacities();
  fc.initial_weights = cold_start(config)
                           ? std::vector<double>(static_cast<std::size_t>(config.num_domains), 1.0)
                           : workload.base.true_weights();
  fc.class_threshold = config.effective_class_threshold();
  fc.reference_ttl = config.reference_ttl_sec;
  fc.calibrate_ttl = config.calibrate_ttl;
  fc.geo = workload.geo;
  bundle = core::make_scheduler(config.policy, fc, *alarms, *sim, rng);

  // ---- Name servers (ns_per_domain caches per owned domain) ----
  dnscache::NsTtlBehavior ns_behavior;
  ns_behavior.min_accepted_sec = config.ns_min_ttl_sec;
  dnscache::NsRetryPolicy ns_retry;
  ns_retry.initial_backoff_sec = config.ns_retry_initial_backoff_sec;
  ns_retry.max_backoff_sec = config.ns_retry_max_backoff_sec;
  const auto per_domain = static_cast<std::size_t>(config.ns_per_domain);
  name_servers.reserve(domains.size() * per_domain);
  for (int d : domains) {
    for (std::size_t m = 0; m < per_domain; ++m) {
      name_servers.push_back(
          std::make_unique<dnscache::NameServer>(*sim, d, *bundle.scheduler, ns_behavior));
      // Only wire the outage calendar when windows exist: a NS without a
      // calendar skips the unreachable check entirely (fault-free runs
      // stay on the exact historical code path).
      if (!fault->dns_calendar().empty()) {
        name_servers.back()->set_dns_outages(&fault->dns_calendar(), ns_retry);
      }
    }
  }

  // ---- Clients (one pooled allocation for the slice's population) ----
  sim::RngStream client_seeds = rng.split();
  sim::RngStream stagger = rng.split();
  clients = std::make_unique<workload::ClientPool>(*sim, *dispatcher, config.session, *think,
                                                   workload.geo.get(),
                                                   config.client_retry_delay_sec);
  clients->reserve(num_clients);
  for (std::size_t k = 0; k < domains.size(); ++k) {
    const auto d = static_cast<std::size_t>(domains[k]);
    for (int c = 0; c < workload.domains.clients[d]; ++c) {
      // Clients spread round-robin over their domain's name servers.
      dnscache::NameServer& ns =
          *name_servers[k * per_domain + static_cast<std::size_t>(c) % per_domain];
      dnscache::Resolver* resolver = &ns;
      if (config.client_cache_enabled) {
        client_caches.push_back(std::make_unique<dnscache::ClientCache>(*sim, ns));
        resolver = client_caches.back().get();
      }
      const std::size_t idx = clients->add(*resolver, client_seeds.split());
      // Staggered arrival over one think time keeps t = 0 from stampeding
      // the DNS with simultaneous resolutions.
      clients->start(idx, stagger.uniform(0.0, config.mean_think_sec));
    }
  }

  // ---- Observability: the distributions no counter keeps, and the ring ----
  // Each exists only when asked for; every component takes a nullable
  // pointer, so the disabled path costs one null check.
  if (config.metrics_enabled) histograms = std::make_unique<SliceHistograms>(cluster->size());
  if (config.trace_enabled) tracer = std::make_shared<obs::EventTracer>(config.trace_capacity);
  if (histograms || tracer) {
    SliceHistograms* h = histograms.get();
    obs::EventTracer* t = tracer.get();
    bundle.scheduler->bind_observability(t, sim.get(), h ? &h->ttl : nullptr,
                                         h ? &h->eligible : nullptr);
    alarms->bind_observability(t);
    fault->bind_observability(t);
    for (auto& ns : name_servers) ns->bind_observability(t, h ? &h->ns_ttl : nullptr);
    for (int i = 0; i < cluster->size(); ++i) cluster->server(i).bind_observability(t);
  }
}

SliceSet::SliceSet(const SimulationConfig& config)
    : config_(config),
      workload_(config),
      tracker_(config.cluster.size(), config.warmup_sec) {}

void SliceSet::build(std::vector<SliceSpec> specs, ParallelExecutor& pool) {
  slices_.resize(specs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tasks.push_back([this, &spec = specs[i], &slot = slices_[i]] {
      slot = std::make_unique<SiteSlice>(config_, workload_, std::move(spec.domains), spec.rng);
    });
  }
  pool.run(tasks);
  estimator_ = make_estimator(config_, *slices_.front()->bundle.domains);
  for (const auto& slice : slices_) slice->estimator = estimator_.get();
  // Cumulative busy time is 0 at t = 0.
  prev_busy_.assign(slices_.size(),
                    std::vector<double>(static_cast<std::size_t>(config_.cluster.size()), 0.0));
  setup_sec_ = setup_watch_.elapsed();
}

RunResult SliceSet::run(ParallelExecutor& pool) {
  if (ran_) throw std::logic_error("SliceSet::run: a run is single-use");
  ran_ = true;

  // A worker the slices leave idle draws the servers' service-time logs
  // ahead. The helper is stopped and joined however this scope is left.
  std::optional<sim::LogRings::Helper> helper;
  if (pool.jobs() > size()) {
    std::size_t servers = 0;
    for (const auto& slice : slices_) servers += static_cast<std::size_t>(slice->cluster->size());
    log_rings_ = std::make_unique<sim::LogRings>(servers, kLogRingValues);
    std::size_t k = 0;
    for (const auto& slice : slices_) {
      for (int s = 0; s < slice->cluster->size(); ++s) {
        slice->cluster->server(s).attach_log_ring((*log_rings_)[k++]);
      }
    }
    try {
      helper.emplace(*log_rings_);
    } catch (const std::system_error&) {
      // No thread to be had: the servers draw every chunk themselves, with
      // the same values.
    }
  }

  obs::Stopwatch phase_watch;
  double warmup_wall = 0.0;
  bool warmup_lapped = false;
  const double horizon = config_.warmup_sec + config_.duration_sec;
  double target = 0.0;
  std::vector<std::function<void()>> tasks;
  for (const auto& slice : slices_) {
    tasks.push_back([sim = slice->sim.get(), &target] { sim->run_until(target); });
  }
  double next_tick = config_.monitor_interval_sec;
  while (true) {
    target = std::min(next_tick, horizon);
    pool.run(tasks);
    if (!warmup_lapped && target >= config_.warmup_sec) {
      warmup_wall = phase_watch.lap();
      warmup_lapped = true;
    }
    if (target == next_tick) {
      monitor_tick(next_tick);
      next_tick += config_.monitor_interval_sec;
    }
    if (target >= horizon) break;
  }
  helper.reset();
  const double measurement_wall = phase_watch.lap();

  RunResult r = reduce(horizon);
  r.profile = {setup_sec_, warmup_wall, measurement_wall, phase_watch.lap()};
  if (log_rings_) {
    r.profile.helper_chunks = log_rings_->helper_chunks();
    r.profile.loop_chunks = log_rings_->loop_chunks();
  }
  return r;
}

void SliceSet::monitor_tick(sim::SimTime now) {
  const std::size_t num_servers = static_cast<std::size_t>(config_.cluster.size());
  std::vector<double> util(num_servers, 0.0);
  std::vector<std::size_t> queues(num_servers, 0);
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    const web::Cluster& cluster = *slices_[s]->cluster;
    std::vector<double>& prev = prev_busy_[s];
    for (std::size_t i = 0; i < num_servers; ++i) {
      const web::WebServer& server = cluster.server(static_cast<int>(i));
      const double busy = server.cumulative_busy_time(now);
      util[i] += (busy - prev[i]) / config_.monitor_interval_sec;
      prev[i] = busy;
      queues[i] += server.queue_length();
    }
  }
  // Replicas with the full capacity can overlap in time, so a sum over
  // several slices is clamped at 1. One slice reports its busy fraction as
  // measured, rounding included (it can exceed 1 by an ulp or two).
  if (slices_.size() > 1) {
    for (double& u : util) u = std::min(u, 1.0);
  }
  obs::EventTracer* const tracer = slices_.front()->tracer.get();
  if (tracer) {
    for (std::size_t i = 0; i < num_servers; ++i) {
      tracer->record(now, obs::TraceKind::kUtilization, static_cast<std::int32_t>(i), 0,
                     util[i]);
    }
  }

  for (const auto& slice : slices_) {
    slice->alarms->observe_full(now, util, queues);
    if (slice->autoscaler) slice->autoscaler->observe(util);
  }
  tracker_.observe(now, util);
  if (++ticks_ % config_.estimator_collect_every_ticks == 0 && !config_.oracle_weights) {
    std::vector<std::uint64_t> total(static_cast<std::size_t>(config_.num_domains), 0);
    for (const auto& slice : slices_) {
      for (int s = 0; s < slice->cluster->size(); ++s) {
        const std::vector<std::uint64_t> part = slice->cluster->server(s).drain_domain_hits();
        for (std::size_t d = 0; d < total.size(); ++d) total[d] += part[d];
      }
    }
    const double window_sec =
        config_.monitor_interval_sec * config_.estimator_collect_every_ticks;
    if (estimator_->observe(total, window_sec)) {
      // The estimator installed into the first slice's model; every other
      // slice's DNS takes the same weights, in slice order.
      const std::vector<double>& weights = slices_.front()->bundle.domains->weights();
      for (std::size_t s = 1; s < slices_.size(); ++s) {
        slices_[s]->bundle.domains->update_weights(weights);
      }
    }
    if (tracer) {
      tracer->record(now, obs::TraceKind::kEstimatorUpdate, estimator_->windows_observed(), 0,
                     window_sec);
    }
  }
  for (const FullObserver& observer : observers_) observer(now, util, queues);
}

RunResult SliceSet::reduce(double horizon) const {
  RunResult r;
  r.seed = config_.seed;
  r.max_util_cdf = tracker_.cdf();
  r.prob_below_090 = tracker_.prob_below(0.90);
  r.prob_below_098 = tracker_.prob_below(0.98);
  r.mean_max_utilization = tracker_.mean_max_utilization();
  r.max_util_ci_relative = tracker_.batch_means().relative_halfwidth();
  r.mean_server_util = tracker_.mean_utilizations();

  // Capacity-weighted aggregate utilization = offered load / total capacity.
  const SiteSlice& first = *slices_.front();
  const std::vector<double>& cap = first.cluster->capacities();
  const double total_cap = std::accumulate(cap.begin(), cap.end(), 0.0);
  for (std::size_t i = 0; i < cap.size(); ++i) {
    r.aggregate_utilization += r.mean_server_util[i] * cap[i] / total_cap;
  }

  // Every sum starts at zero and every RunningStat merges into an empty
  // one first, so a single slice reduces to its own figures bit for bit.
  r.events_dispatched = ticks_;
  double network_time = 0.0;
  std::uint64_t redirects = 0;
  std::uint64_t direct_deliveries = 0;
  sim::RunningStat ttl_stat;
  std::vector<sim::RunningStat> response(cap.size());
  sim::Histogram site_response(30.0, 3000);
  r.domain_latency.resize(static_cast<std::size_t>(config_.num_domains));
  for (const auto& slice : slices_) {
    const workload::ClientPool::Totals totals = slice->clients->totals();
    r.total_pages += totals.pages;
    network_time += totals.network_time_sec;
    for (int s = 0; s < slice->cluster->size(); ++s) {
      const web::WebServer& server = slice->cluster->server(s);
      r.total_hits += server.hits_served();
      response[static_cast<std::size_t>(s)].merge(server.response_time());
      site_response.merge(server.response_histogram());
    }
    for (const auto& ns : slice->name_servers) {
      r.authoritative_queries += ns->authoritative_queries();
      r.ns_cache_hits += ns->cache_hits();
    }
    for (const auto& cc : slice->client_caches) r.client_cache_hits += cc->hits();
    ttl_stat.merge(slice->bundle.scheduler->ttl_stat());
    r.events_dispatched += slice->sim->events_dispatched();
    r.lost_pages += slice->cluster->total_lost_pages();
    r.lost_hits += slice->cluster->total_lost_hits();
    r.failed_requests +=
        slice->cluster->total_lost_pages() + slice->cluster->total_rejected_pages();
    if (const auto* redirecting =
            dynamic_cast<const web::RedirectingDispatcher*>(slice->dispatcher.get())) {
      redirects += redirecting->redirects();
      direct_deliveries += redirecting->direct_deliveries();
    }
    // Client-perceived page response time per domain (request flight +
    // queue + service + reply flight), from the owning slice's clients.
    for (int d : slice->domains) {
      const sim::Histogram& h = slice->clients->domain_response_histogram(d);
      RunResult::DomainLatency& dl = r.domain_latency[static_cast<std::size_t>(d)];
      dl.pages = h.count();
      if (dl.pages > 0) {
        dl.p50_sec = h.quantile(0.50);
        dl.p95_sec = h.quantile(0.95);
        dl.p99_sec = h.quantile(0.99);
        dl.mean_sec = h.mean();
      }
    }
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

  // ---- Latency as a first-class result: mean rtt(domain, chosen server)
  // per DNS decision, and each server's share of the RTT mass ----
  if (workload_.geo) {
    std::uint64_t decisions = 0;
    double rtt_total = 0.0;
    std::vector<double> per_server(cap.size(), 0.0);
    for (const auto& slice : slices_) {
      const core::DnsScheduler& scheduler = *slice->bundle.scheduler;
      decisions += scheduler.decisions();
      rtt_total += scheduler.assignment_rtt_sum_sec();
      const std::vector<double>& part = scheduler.per_server_assignment_rtt_sec();
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

  r.redirected_pages = redirects;
  const double handled = static_cast<double>(redirects + direct_deliveries);
  r.redirected_fraction = handled > 0 ? static_cast<double>(redirects) / handled : 0.0;

  r.mean_ttl = ttl_stat.mean();
  r.alarm_signals = first.alarms->alarm_signals() + first.alarms->normal_signals();
  r.pool_changes = first.alarms->pool_changes();
  r.final_pool_size = first.alarms->pool_size();
  if (first.autoscaler) {
    r.autoscale_ups = first.autoscaler->scale_up_actions();
    r.autoscale_downs = first.autoscaler->scale_down_actions();
  }
  r.dns_outage_sec = first.fault->dns_calendar().outage_seconds(horizon);
  const double attempts =
      static_cast<double>(r.failed_requests) + static_cast<double>(r.total_pages);
  r.unavailability_fraction =
      attempts > 0 ? static_cast<double>(r.failed_requests) / attempts : 0.0;
  if (config_.metrics_enabled) {
    r.metrics = std::make_shared<const obs::MetricsSnapshot>(metrics_snapshot(r));
  }
  if (slices_.size() == 1) {
    r.trace = first.tracer;
  } else if (config_.trace_enabled) {
    std::vector<const obs::EventTracer*> rings;
    for (const auto& slice : slices_) rings.push_back(slice->tracer.get());
    r.trace = std::make_shared<const obs::EventTracer>(obs::EventTracer::merged(rings));
  }
  return r;
}

obs::MetricsSnapshot SliceSet::metrics_snapshot(const RunResult& r) const {
  const SiteSlice& first = *slices_.front();
  const int servers = first.cluster->size();
  SliceHistograms hist(servers);
  std::uint64_t decisions = 0;
  std::uint64_t ns_stale = 0;
  std::uint64_t ns_failed = 0;
  std::size_t peak_events = 0;
  std::uint64_t cancels = 0;
  std::size_t live_events = 0;
  for (const auto& slice : slices_) {
    decisions += slice->bundle.scheduler->decisions();
    hist.ttl.merge(slice->histograms->ttl);
    hist.eligible.merge(slice->histograms->eligible);
    hist.ns_ttl.merge(slice->histograms->ns_ttl);
    for (const auto& ns : slice->name_servers) {
      ns_stale += ns->stale_serves();
      ns_failed += ns->failed_queries();
    }
    // Each slice has its own event queue: the peaks sum to a bound on the
    // run's peak.
    peak_events += slice->sim->peak_pending();
    cancels += slice->sim->cancels();
    live_events += slice->sim->pending();
  }

  // The order below is the order of the "metrics" object in report JSON.
  obs::MetricsSnapshot snap;
  snap.add_counter("scheduler.decisions", decisions);
  snap.add_histogram("scheduler.ttl_sec", hist.ttl);
  snap.add_histogram("scheduler.eligible_servers", hist.eligible);
  snap.add_counter("alarms.alarm_signals", first.alarms->alarm_signals());
  snap.add_counter("alarms.normal_signals", first.alarms->normal_signals());
  snap.add_counter("fault.events", first.fault->events_fired());
  snap.add_counter("ns.cache_hits", r.ns_cache_hits);
  snap.add_counter("ns.authoritative_queries", r.authoritative_queries);
  snap.add_counter("ns.stale_serves", ns_stale);
  snap.add_counter("ns.failed_queries", ns_failed);
  snap.add_histogram("ns.effective_ttl_sec", hist.ns_ttl);
  for (int i = 0; i < servers; ++i) {
    std::uint64_t pages = 0;
    std::uint64_t hits = 0;
    std::uint64_t lost_pages = 0;
    std::uint64_t lost_hits = 0;
    std::size_t queue = 0;
    double busy = 0.0;
    for (const auto& slice : slices_) {
      const web::WebServer& server = slice->cluster->server(i);
      pages += server.pages_served();
      hits += server.hits_served();
      lost_pages += server.lost_pages();
      lost_hits += server.lost_hits();
      queue += server.queue_length();
      busy += server.closed_busy_time();
    }
    const std::string prefix = "server." + std::to_string(i) + ".";
    snap.add_counter(prefix + "pages_completed", pages);
    snap.add_counter(prefix + "hits_completed", hits);
    snap.add_counter(prefix + "lost_pages", lost_pages);
    snap.add_counter(prefix + "lost_hits", lost_hits);
    snap.add_gauge(prefix + "queue_depth", static_cast<double>(queue));
    snap.add_gauge(prefix + "busy_sec", busy);
    if (i == 0) snap.add_counter("site.failed_requests", r.failed_requests);
  }
  snap.add_gauge("kernel.events_dispatched", static_cast<double>(r.events_dispatched));
  snap.add_gauge("kernel.peak_events", static_cast<double>(peak_events));
  snap.add_gauge("kernel.cancels", static_cast<double>(cancels));
  snap.add_gauge("kernel.live_events_at_end", static_cast<double>(live_events));
  snap.add_gauge("dns.outage_sec", r.dns_outage_sec);
  snap.add_gauge("latency.mean_assignment_rtt_sec", r.mean_assignment_rtt_sec);
  snap.add_gauge("latency.mean_network_rtt_sec", r.mean_network_rtt_sec);
  snap.add_gauge("pool.final_size", static_cast<double>(r.final_pool_size));
  snap.add_gauge("pool.changes", static_cast<double>(r.pool_changes));
  return snap;
}

}  // namespace adattl::experiment
