// The three simulated-site workloads: paper_site and churn_site (serial
// Site) and sharded_day (ShardedSite). Each replication is timed around the
// public calls (construction, run()); the traced run adds counters the
// layers already expose plus socket-free replays of the run's own inputs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/load_estimator.h"
#include "core/policy_factory.h"
#include "experiment/cli.h"
#include "experiment/parallel_executor.h"
#include "experiment/sharded_site.h"
#include "experiment/site.h"
#include "geo/geo_model.h"
#include "host_ref.h"
#include "proc.h"
#include "replay.h"
#include "report.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace perfbench {
namespace {

using adattl::experiment::RunResult;
using adattl::experiment::ShardedSite;
using adattl::experiment::SimulationConfig;
using adattl::experiment::Site;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The workload definitions, spelled as run_scenario flags.
std::vector<std::string> workload_flags(const Options& opt, bool* sharded) {
  *sharded = false;
  std::vector<std::string> flags;
  if (opt.workload == "paper_site") {
    flags = {"--policy=DRR2-TTL/S_K", "--heterogeneity=20", "--domains=20", "--clients=500"};
  } else if (opt.workload == "churn_site") {
    flags = {"--policy=COST(0.5)-TTL/K",
             "--heterogeneity=35",
             "--domains=20",
             "--clients=500",
             "--geo-regions=3",
             "--ttl=4",
             "--measured",
             "--estimator=ar",
             "--queue-alarm=30",
             "--faults=" + opt.assets_dir + "/churn.faults"};
  } else if (opt.workload == "sharded_day") {
    *sharded = true;
    flags = {"--policy=DRR2-TTL/S_K", "--heterogeneity=20", "--domains=20",
             "--clients=500",         "--shard-domains",      "--shard-count=4"};
    flags.push_back(opt.tiny ? "--scale=5" : "--scale=400");
  } else {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  if (*sharded) {
    flags.push_back("--warmup=60");
    flags.push_back(opt.tiny ? "--duration=120" : "--duration=240");
  } else {
    flags.push_back(opt.tiny ? "--warmup=60" : "--warmup=600");
    flags.push_back(opt.tiny ? "--duration=600" : "--duration=18000");
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Counters summed over every scheduler, name server and server replica of
/// a finished run (one set for Site, one per shard for ShardedSite).
struct Tally {
  std::uint64_t decisions = 0, assigned = 0, ns_auth = 0, ns_hits = 0, ns_stale = 0;
  std::uint64_t served_pages = 0, served_hits = 0, queued_pages = 0, lifetime_hits = 0;
  std::uint64_t lost_pages = 0, lost_hits = 0, rejected_pages = 0;

  void add(const adattl::core::DnsScheduler& s) {
    decisions += s.decisions();
    for (std::uint64_t a : s.assignments()) assigned += a;
  }
  void add(const adattl::dnscache::NameServer& ns) {
    ns_auth += ns.authoritative_queries();
    ns_hits += ns.cache_hits();
    ns_stale += ns.stale_serves();
  }
  void add(const adattl::web::Cluster& c) {
    for (int s = 0; s < c.size(); ++s) {
      const adattl::web::WebServer& sv = c.server(s);
      served_pages += sv.pages_served();
      served_hits += sv.hits_served();
      queued_pages += sv.queue_length();
      lost_pages += sv.lost_pages();
      lost_hits += sv.lost_hits();
      rejected_pages += sv.rejected_pages();
      for (std::uint64_t h : sv.lifetime_domain_hits()) lifetime_hits += h;
    }
  }
};

Tally tally(Site& site) {
  Tally t;
  t.add(site.scheduler());
  for (int d = 0; d < site.config().num_domains; ++d) {
    for (int m = 0; m < site.config().ns_per_domain; ++m) t.add(site.name_server(d, m));
  }
  t.add(site.cluster());
  return t;
}

Tally tally(ShardedSite& site) {
  Tally t;
  for (int s = 0; s < site.shard_count(); ++s) {
    ShardedSite::Shard& shard = site.shard(s);
    t.add(*shard.bundle.scheduler);
    for (const auto& ns : shard.name_servers) t.add(*ns);
    t.add(*shard.cluster);
  }
  return t;
}

/// Conservation laws of a finished run: pages, hits and authoritative
/// queries balance against scheduler decisions and server counters.
/// Returns the first violated law, or "" when all hold.
std::string conservation_error(const Tally& t, const RunResult& r, int total_clients) {
  const auto bad = [](const char* law, std::uint64_t a, std::uint64_t b) {
    return std::string(law) + " (" + std::to_string(a) + " vs " + std::to_string(b) + ")";
  };
  if (r.total_pages == 0 || t.decisions == 0) return "empty run";
  if (r.authoritative_queries != t.decisions) {
    return bad("authoritative queries != scheduler decisions", r.authoritative_queries,
               t.decisions);
  }
  if (t.assigned != t.decisions) return bad("assignments != decisions", t.assigned, t.decisions);
  if (t.ns_auth != r.authoritative_queries) {
    return bad("name-server queries != authoritative queries", t.ns_auth,
               r.authoritative_queries);
  }
  if (t.ns_hits != r.ns_cache_hits) return bad("ns cache hits", t.ns_hits, r.ns_cache_hits);
  if (r.total_hits != t.served_hits) return bad("hits != served hits", r.total_hits, t.served_hits);
  if (r.lost_pages != t.lost_pages) return bad("lost pages", r.lost_pages, t.lost_pages);
  if (r.lost_hits != t.lost_hits) return bad("lost hits", r.lost_hits, t.lost_hits);
  if (t.lifetime_hits < t.served_hits + t.lost_hits + t.queued_pages) {
    return bad("hits submitted < served + lost + queued", t.lifetime_hits,
               t.served_hits + t.lost_hits + t.queued_pages);
  }
  const std::uint64_t accepted = t.served_pages + t.lost_pages + t.queued_pages;
  const std::uint64_t attempts = r.total_pages + r.failed_requests;
  if (accepted + t.rejected_pages > attempts) {
    return bad("pages dispatched > page attempts", accepted + t.rejected_pages, attempts);
  }
  if (attempts - accepted - t.rejected_pages > static_cast<std::uint64_t>(total_clients)) {
    return bad("pages in limbo > clients", attempts - accepted - t.rejected_pages,
               static_cast<std::uint64_t>(total_clients));
  }
  if (r.failed_requests != t.lost_pages + t.rejected_pages) {
    return bad("failed pages != lost + rejected", r.failed_requests,
               t.lost_pages + t.rejected_pages);
  }
  for (double u : r.mean_server_util) {
    if (!(u >= 0.0 && u <= 1.0 + 1e-9)) return "server utilization outside [0, 1]";
  }
  return "";
}

/// FNV-1a digest of a run's results with wall-clock fields scrubbed.
std::string result_digest(const RunResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mixd = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  for (std::uint64_t v : {r.seed, r.total_pages, r.total_hits, r.authoritative_queries,
                          r.ns_cache_hits, r.alarm_signals, r.events_dispatched,
                          r.failed_requests, r.lost_pages, r.lost_hits, r.pool_changes}) {
    mix(v);
  }
  for (double d : {r.mean_max_utilization, r.prob_below_090, r.prob_below_098,
                   r.aggregate_utilization, r.mean_ttl, r.mean_page_response_sec,
                   r.response_p99_sec, r.mean_assignment_rtt_sec}) {
    mixd(d);
  }
  for (double d : r.mean_server_util) mixd(d);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------------
// Socket-free replays (traced run only)
// ---------------------------------------------------------------------------

/// Mean ns per pop + schedule on an EventQueue held at `depth` events.
double replay_event_queue(std::size_t depth, std::uint64_t seed) {
  adattl::sim::EventQueue q;
  adattl::sim::RngStream rng(seed);
  depth = std::max<std::size_t>(depth, 1);
  q.reserve(depth + 1);
  for (std::size_t i = 0; i < depth; ++i) q.schedule(rng.uniform(0.0, 100.0), [] {});
  const std::size_t ops = std::max<std::size_t>(400000, 4 * depth);
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < ops; ++k) {
    auto [t, cb] = q.pop();
    q.schedule(t + rng.exponential(100.0), [] {});
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

/// Mean ns per DnsScheduler::schedule over the run's captured domain
/// sequence, through a scheduler built like the site's.
double replay_decisions(const SimulationConfig& cfg, const std::vector<double>& capacities,
                        const std::vector<double>& weights,
                        const std::vector<adattl::web::DomainId>& sequence,
                        std::uint64_t seed) {
  adattl::core::AlarmRegistry alarms(static_cast<int>(capacities.size()), cfg.alarm_threshold,
                                     cfg.alarm_enabled, cfg.alarm_queue_threshold);
  adattl::core::SchedulerFactoryConfig fc;
  fc.capacities = capacities;
  fc.initial_weights = weights;
  fc.class_threshold = cfg.effective_class_threshold();
  fc.reference_ttl = cfg.reference_ttl_sec;
  fc.calibrate_ttl = cfg.calibrate_ttl;
  if (cfg.geo_regions > 0) {
    fc.geo = std::make_shared<const adattl::geo::GeoModel>(adattl::geo::GeoModel::regions(
        cfg.num_domains, static_cast<int>(capacities.size()), cfg.geo_regions,
        cfg.geo_intra_rtt_sec, cfg.geo_inter_rtt_sec));
  }
  return replay_schedule(cfg.policy, fc, alarms, sequence, seed);
}

/// Mean µs per LoadEstimator::observe of the workload's estimator kind,
/// fed windows of per-domain hits drawn around the domain weights.
double replay_estimator(const SimulationConfig& cfg, const std::vector<double>& weights,
                        double hits_per_window, std::uint64_t seed) {
  using namespace adattl::core;
  DomainModel model(weights, cfg.effective_class_threshold());
  std::unique_ptr<LoadEstimator> est;
  switch (cfg.estimator_kind) {
    case adattl::experiment::EstimatorKind::kEwma:
      est = std::make_unique<EwmaLoadEstimator>(model, cfg.estimator_smoothing);
      break;
    case adattl::experiment::EstimatorKind::kSlidingWindow:
      est = std::make_unique<SlidingWindowLoadEstimator>(model, cfg.estimator_window_count);
      break;
    case adattl::experiment::EstimatorKind::kHoltWinters:
      est = std::make_unique<HoltWintersLoadEstimator>(model, cfg.estimator_smoothing,
                                                       cfg.estimator_trend);
      break;
    case adattl::experiment::EstimatorKind::kAr:
      est = std::make_unique<ArLoadEstimator>(model, cfg.estimator_ar_order);
      break;
  }
  adattl::sim::RngStream rng(seed);
  constexpr int kWindows = 256;
  std::vector<std::vector<std::uint64_t>> windows(kWindows);
  for (auto& w : windows) {
    for (double wt : weights) {
      w.push_back(static_cast<std::uint64_t>(wt * hits_per_window * rng.uniform(0.8, 1.2)));
    }
  }
  const double window_sec = cfg.monitor_interval_sec * cfg.estimator_collect_every_ticks;
  constexpr int kRounds = 40;
  const auto t0 = Clock::now();
  for (int k = 0; k < kRounds; ++k) {
    for (const auto& w : windows) est->observe(w, window_sec);
  }
  return seconds_since(t0) * 1e6 / (kRounds * kWindows);
}

// ---------------------------------------------------------------------------
// One replication, in a process of its own
// ---------------------------------------------------------------------------

/// What one replication reports. Trivially copyable: it crosses from the
/// child process that ran the replication through a pipe.
struct Rep {
  bool ok = false;  ///< the replication ran to the end and reported
  double setup_s = 0.0, run_s = 0.0, loop_s = 0.0, collect_s = 0.0, profile_setup_s = 0.0;
  double peak_rss_mib = 0.0;
  double host_ref_s = 0.0;  ///< host_reference_s(), mean of before and after
  std::uint64_t events = 0, peak_pending = 0, cancels = 0, ns_stale = 0, decisions = 0;
  std::uint64_t fault_events = 0, estimator_windows = 0;
  std::uint64_t pages = 0, hits = 0, auth_queries = 0, ns_hits = 0, alarm_signals = 0;
  std::uint64_t failed_pages = 0;
  double event_imbalance = 1.0;
  // Traced replications only.
  std::uint64_t monitor_ticks = 0;
  double bytes_per_client = 0.0;
  double busy_s = 0.0;      ///< Σ thread CPU in run()'s event loop
  double busy_s_max = 0.0;  ///< busiest thread
  char digest[17] = {};
  char conservation[200] = {};  ///< first violated law; empty when all hold
};
static_assert(std::is_trivially_copyable_v<Rep>, "Rep crosses a pipe as raw bytes");

/// Inputs a traced replication captures for the replays.
struct Captured {
  std::vector<adattl::web::DomainId> sequence;  ///< every scheduler's decisions
  std::vector<double> capacities;
  std::vector<double> weights;
};

struct RepPlan {
  bool sharded = false;
  int workers = 1;
  bool traced = false;
  bool corrupt = false;     ///< self-test: damage the result before the checks
  bool setup_only = false;  ///< build the site and stop
};

/// Fills the parts of `rep` every site kind shares.
void finish(Rep& rep, RunResult& r, const Tally& t, int total_clients, bool corrupt) {
  if (corrupt) r.total_hits += 1;
  std::snprintf(rep.conservation, sizeof rep.conservation, "%s",
                conservation_error(t, r, total_clients).c_str());
  std::snprintf(rep.digest, sizeof rep.digest, "%s", result_digest(r).c_str());
  rep.loop_s = r.profile.warmup_sec + r.profile.measurement_sec;
  rep.collect_s = r.profile.collect_sec;
  rep.profile_setup_s = r.profile.setup_sec;
  rep.ns_stale = t.ns_stale;
  rep.decisions = t.decisions;
  rep.pages = r.total_pages;
  rep.hits = r.total_hits;
  rep.auth_queries = r.authoritative_queries;
  rep.ns_hits = r.ns_cache_hits;
  rep.alarm_signals = r.alarm_signals;
  rep.failed_pages = r.failed_requests;
  rep.peak_rss_mib = peak_rss_mib();
  rep.ok = true;
}

/// Σ and max of per-thread CPU deltas between two /proc snapshots around
/// run(). The result collection after the event loop runs on this thread
/// alone, so its `collect_s` comes off this thread's delta: busy then
/// covers the event loop only, as loop_s does.
void cpu_delta(const std::map<int, double>& before, const std::map<int, double>& after,
               double collect_s, Rep& rep) {
  const int self = static_cast<int>(::gettid());
  for (const auto& [tid, cpu] : after) {
    const auto it = before.find(tid);
    double d = cpu - (it == before.end() ? 0.0 : it->second);
    if (tid == self) d = std::max(0.0, d - collect_s);
    rep.busy_s += d;
    rep.busy_s_max = std::max(rep.busy_s_max, d);
  }
}

Rep run_serial(const SimulationConfig& cfg, const RepPlan& plan, Captured& cap) {
  Rep rep;
  const double rss0 = rss_bytes();
  const auto t0 = Clock::now();
  Site site(cfg);
  rep.setup_s = seconds_since(t0);
  rep.bytes_per_client = (rss_bytes() - rss0) / site.config().total_clients;
  if (plan.setup_only) return rep;
  if (plan.traced) {
    auto* seq = &cap.sequence;
    site.scheduler().set_decision_hook(
        [seq](adattl::web::DomainId d, const adattl::core::Decision&) { seq->push_back(d); });
    site.monitor().add_full_observer(
        [&rep](adattl::sim::SimTime, const std::vector<double>&,
               const std::vector<std::size_t>&) { ++rep.monitor_ticks; });
  }
  const auto cpu0 = plan.traced ? thread_cpu_s() : std::map<int, double>{};
  const auto t1 = Clock::now();
  RunResult r = site.run();
  rep.run_s = seconds_since(t1);
  if (plan.traced) cpu_delta(cpu0, thread_cpu_s(), r.profile.collect_sec, rep);

  finish(rep, r, tally(site), site.config().total_clients, plan.corrupt);
  rep.events = site.simulator().events_dispatched();
  rep.peak_pending = site.simulator().peak_pending();
  rep.cancels = site.simulator().cancels();
  rep.fault_events = site.fault_injector().events_fired();
  rep.estimator_windows = static_cast<std::uint64_t>(site.estimator().windows_observed());
  cap.capacities = site.cluster().capacities();
  cap.weights = site.domain_model().weights();
  return rep;
}

Rep run_sharded(const SimulationConfig& cfg, const RepPlan& plan, Captured& cap) {
  Rep rep;
  const double rss0 = rss_bytes();
  const auto t0 = Clock::now();
  ShardedSite site(cfg);
  rep.setup_s = seconds_since(t0);
  rep.bytes_per_client = (rss_bytes() - rss0) / site.config().total_clients;
  if (plan.setup_only) return rep;
  std::vector<std::vector<adattl::web::DomainId>> sequences(
      static_cast<std::size_t>(site.shard_count()));
  if (plan.traced) {
    for (int s = 0; s < site.shard_count(); ++s) {
      auto* seq = &sequences[static_cast<std::size_t>(s)];
      site.shard(s).bundle.scheduler->set_decision_hook(
          [seq](adattl::web::DomainId d, const adattl::core::Decision&) { seq->push_back(d); });
    }
  }
  adattl::experiment::ParallelExecutor exec(plan.workers);
  const auto cpu0 = plan.traced ? thread_cpu_s() : std::map<int, double>{};
  const auto t1 = Clock::now();
  RunResult r = site.run(exec);
  rep.run_s = seconds_since(t1);
  if (plan.traced) cpu_delta(cpu0, thread_cpu_s(), r.profile.collect_sec, rep);
  for (const auto& s : sequences) cap.sequence.insert(cap.sequence.end(), s.begin(), s.end());

  finish(rep, r, tally(site), site.config().total_clients, plan.corrupt);
  std::uint64_t max_events = 0;
  for (int s = 0; s < site.shard_count(); ++s) {
    const adattl::sim::Simulator& sim = *site.shard(s).sim;
    rep.events += sim.events_dispatched();
    rep.peak_pending = std::max<std::uint64_t>(rep.peak_pending, sim.peak_pending());
    rep.cancels += sim.cancels();
    max_events = std::max(max_events, sim.events_dispatched());
  }
  rep.event_imbalance = rep.events ? static_cast<double>(max_events) * site.shard_count() /
                                         static_cast<double>(rep.events)
                                   : 1.0;
  // Every shard drives an identical copy of the fault schedule and feeds
  // its estimator the same merged window, so shard 0 speaks for all.
  rep.fault_events = site.shard(0).fault->events_fired();
  rep.estimator_windows =
      static_cast<std::uint64_t>(site.shard(0).estimator->windows_observed());
  cap.capacities = site.shard(0).cluster->capacities();
  cap.weights = site.shard(0).bundle.domains->weights();
  return rep;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

template <class T>
bool write_vec(int fd, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  return write_all(fd, &n, sizeof n) && write_all(fd, v.data(), n * sizeof(T));
}

template <class T>
bool read_vec(int fd, std::vector<T>& v) {
  std::uint64_t n = 0;
  if (!read_all(fd, &n, sizeof n) || n > (1u << 28)) return false;
  v.resize(n);
  return read_all(fd, v.data(), n * sizeof(T));
}

/// Runs one replication in a forked child, so each starts from a fresh
/// process as a run_scenario invocation does (cold allocator, own peak
/// RSS), and returns what it reported. The caller must be single-threaded.
Rep run_in_child(const SimulationConfig& cfg, const RepPlan& plan, Captured* cap) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(fds[0]);
    int code = 1;
    try {
      Captured c;
      const double ref0 = host_reference_s();
      reset_peak_rss();
      Rep rep = plan.sharded ? run_sharded(cfg, plan, c) : run_serial(cfg, plan, c);
      rep.host_ref_s = (ref0 + host_reference_s()) / 2;  // after the peak RSS was read
      const bool sent = write_all(fds[1], &rep, sizeof rep) &&
                        write_vec(fds[1], c.sequence) && write_vec(fds[1], c.capacities) &&
                        write_vec(fds[1], c.weights);
      code = sent ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_harness: replication: %s\n", e.what());
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  Rep rep;
  Captured c;
  const bool got = read_all(fds[0], &rep, sizeof rep) && read_vec(fds[0], c.sequence) &&
                   read_vec(fds[0], c.capacities) && read_vec(fds[0], c.weights);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep = Rep{};
    std::snprintf(rep.conservation, sizeof rep.conservation, "replication process failed");
  } else if (cap != nullptr) {
    *cap = std::move(c);
  }
  return rep;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace

int run_site_workload(const Options& opt, Report& report) {
  bool sharded = false;
  const std::vector<std::string> flags = workload_flags(opt, &sharded);
  const SimulationConfig base = adattl::experiment::parse_cli(flags).config;
  const double horizon = base.warmup_sec + base.duration_sec;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  RepPlan plan;
  plan.sharded = sharded;
  plan.workers = sharded ? std::min(4, nproc) : 1;

  const auto rep_config = [&](std::uint64_t i) {
    SimulationConfig c = base;
    c.seed = mix_seed(opt.seed, i);
    return c;
  };

  // End-to-end times are given at the host's nominal speed, scaled by the
  // host reference timed around their replication (host_ref.h). Across
  // runs the event loop slowed in proportion to the reference (elasticity
  // 1). The raw times are the per-layer site.* values.
  const auto nominal = [](const Rep& r) { return to_nominal(r.host_ref_s, 1.0); };
  std::vector<double>& host_ref_ms = report.e2e["host.ref_ms"];

  // Set-up is timed in every replication. The sharded build is a small
  // part of its replication, so extra builds (not run) give set-up more
  // repetitions there.
  std::vector<double>& setup = report.e2e["setup_s"];
  if (sharded) {
    RepPlan only = plan;
    only.setup_only = true;
    for (std::uint64_t k = 0; k < (opt.tiny ? 2u : 10u); ++k) {
      const Rep rep = run_in_child(rep_config(1000 + k), only, nullptr);
      setup.push_back(rep.setup_s * nominal(rep));
      host_ref_ms.push_back(rep.host_ref_s * 1e3);
    }
  }

  // ---- Measured loop: replications back to back until the budget ----
  // Traced runs alternate untraced and traced replications, so the
  // tracing overhead compares like with like.
  std::vector<Rep> reps;
  std::vector<Rep> traced;
  std::vector<double> untraced_loop;
  Captured captured;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = seconds_since(start);
    if (i >= (opt.trace ? 2u : 1u) && elapsed + elapsed / static_cast<double>(i) / 2 > opt.seconds) {
      break;
    }
    RepPlan p = plan;
    p.traced = opt.trace && i % 2 == 1;
    p.corrupt = opt.corrupt && i == 0;
    Rep rep = run_in_child(rep_config(i), p, p.traced && traced.empty() ? &captured : nullptr);
    if (rep.ok) {
      setup.push_back(rep.setup_s * nominal(rep));
      report.e2e["latency_us"].push_back((rep.setup_s + rep.run_s) * 1e6 * nominal(rep));
      report.e2e["throughput_per_s"].push_back(horizon / rep.loop_s / nominal(rep));
      report.e2e["peak_rss_mib"].push_back(rep.peak_rss_mib);
      host_ref_ms.push_back(rep.host_ref_s * 1e3);
      if (!p.traced) untraced_loop.push_back(rep.loop_s);
    }
    if (p.traced) traced.push_back(rep);
    reps.push_back(rep);
  }

  // ---- Output checks ----
  std::uint64_t failed_runs = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const bool ok = reps[i].ok && reps[i].conservation[0] == '\0';
    if (!ok) ++failed_runs;
    if (!ok || i == 0) {
      report.check("conservation rep " + std::to_string(i), ok, reps[i].conservation);
    }
  }
  report.info["digest"] = reps[0].digest;
  if (!sharded) {
    // Serial results are deterministic per seed: replication 0 again must
    // reproduce its digest, and match the pinned one when this seed is pinned.
    const Rep again = run_in_child(rep_config(0), plan, nullptr);
    const bool same = again.ok && std::string(again.digest) == reps[0].digest;
    if (!same) ++failed_runs;
    report.check("serial rerun reproduces digest", same,
                 std::string(reps[0].digest) + " vs " + again.digest);
    if (!opt.expect_digest.empty()) {
      const bool pinned = opt.expect_digest == reps[0].digest;
      if (!pinned) ++failed_runs;
      report.check("pinned digest", pinned, "expected " + opt.expect_digest);
    }
    report.attempted = reps.size() + 1;
  } else {
    // Sharded results must not depend on the worker count. Checked on a
    // small copy of the workload so the check stays cheap.
    SimulationConfig small = rep_config(0);
    small.scale = 5;
    small.duration_sec = 120;
    RepPlan one = plan;
    one.workers = 1;
    const Rep serial = run_in_child(small, one, nullptr);
    const Rep parallel = run_in_child(small, plan, nullptr);
    const bool same = serial.ok && parallel.ok && std::string(serial.digest) == parallel.digest &&
                      serial.conservation[0] == '\0' && parallel.conservation[0] == '\0';
    if (!same) ++failed_runs;
    report.check("sharded result identical at 1 and " + std::to_string(plan.workers) + " workers",
                 same, std::string(serial.digest) + " vs " + parallel.digest);
    report.attempted = reps.size() + 2;
  }
  report.failed = failed_runs;
  report.info["replications"] = std::to_string(reps.size());
  report.info["workers"] = std::to_string(plan.workers);
  report.info["clients"] = std::to_string(static_cast<long long>(base.total_clients * base.scale));
  report.info["sim_horizon_s"] = std::to_string(horizon);

  if (!opt.trace) return 0;

  // ---- Per-layer values: medians over the traced replications ----
  std::vector<Rep> ok_traced;
  for (const Rep& r : traced) {
    if (r.ok) ok_traced.push_back(r);
  }
  if (ok_traced.empty()) throw std::runtime_error("no traced replication finished");
  const auto med = [&](const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : ok_traced) v.push_back(f(r));
    return median(v);
  };
  auto& L = report.layer;
  L["site.setup_s"] = med([](const Rep& r) { return r.profile_setup_s; });
  L["site.collect_s"] = med([](const Rep& r) { return r.collect_s; });
  L["kernel.events"] = med([](const Rep& r) { return double(r.events); });
  L["kernel.ns_per_event"] = med([](const Rep& r) { return r.loop_s * 1e9 / double(r.events); });
  L["kernel.peak_pending"] = med([](const Rep& r) { return double(r.peak_pending); });
  L["kernel.cancels"] = med([](const Rep& r) { return double(r.cancels); });
  L["client.pages"] = med([](const Rep& r) { return double(r.pages); });
  L["client.events_per_page"] = med([](const Rep& r) { return double(r.events) / double(r.pages); });
  L["client.bytes_per_client"] = med([](const Rep& r) { return r.bytes_per_client; });
  L["web.hits"] = med([](const Rep& r) { return double(r.hits); });
  L["web.hits_per_page"] = med([](const Rep& r) { return double(r.hits) / double(r.pages); });
  const double ticks = std::floor(horizon / base.monitor_interval_sec);
  L["monitor.ticks"] = sharded ? ticks : med([](const Rep& r) { return double(r.monitor_ticks); });
  L["ns.auth_queries"] = med([](const Rep& r) { return double(r.auth_queries); });
  L["ns.cache_hit_ratio"] = med([](const Rep& r) {
    return double(r.ns_hits) / (double(r.ns_hits) + double(r.auth_queries));
  });
  L["ns.stale_serves"] = med([](const Rep& r) { return double(r.ns_stale); });
  L["sched.decisions"] = med([](const Rep& r) { return double(r.decisions); });
  L["alarm.signals"] = med([](const Rep& r) { return double(r.alarm_signals); });
  L["estimator.windows"] = med([](const Rep& r) { return double(r.estimator_windows); });
  L["fault.events"] = med([](const Rep& r) { return double(r.fault_events); });
  L["fault.failed_pages"] = med([](const Rep& r) { return double(r.failed_pages); });

  // Loop time and barrier accounting come from one traced replication (the
  // middle one by loop time), so busy + wait = workers × loop holds exactly
  // on sharded_day. A serial Site has one worker and no barrier: wait,
  // efficiency and per-tick wait are 0 there.
  const double workers = plan.workers;
  std::vector<Rep> by_loop = ok_traced;
  std::sort(by_loop.begin(), by_loop.end(),
            [](const Rep& a, const Rep& b) { return a.loop_s < b.loop_s; });
  const Rep& mid = by_loop[by_loop.size() / 2];
  L["shard.busy_s"] = mid.busy_s;
  L["shard.busy_s_max"] = mid.busy_s_max;
  L["site.loop_s"] = mid.loop_s;
  L["barrier.wait_s"] = sharded ? workers * mid.loop_s - mid.busy_s : 0.0;
  L["shard.parallel_efficiency"] = sharded ? mid.busy_s / (workers * mid.loop_s) : 0.0;
  L["shard.event_imbalance"] = med([](const Rep& r) { return r.event_imbalance; });
  L["barrier.ticks"] = sharded ? ticks : 0.0;
  L["barrier.us_per_tick"] = sharded ? L["barrier.wait_s"] * 1e6 / ticks : 0.0;

  L["host.ref_ms"] = median(host_ref_ms);

  // Tracing overhead: traced vs untraced event-loop wall, same run.
  L["trace.overhead_ratio"] =
      med([](const Rep& r) { return r.loop_s; }) / median(untraced_loop) - 1.0;

  // ---- Socket-free replays of this run's own inputs ----
  const Rep& first = ok_traced.front();
  const SimulationConfig cfg0 = rep_config(0).scaled();
  L["kernel.replay_ns_per_op"] =
      replay_event_queue(static_cast<std::size_t>(first.peak_pending), mix_seed(opt.seed, 77));
  L["sched.ns_per_decision"] = replay_decisions(cfg0, captured.capacities, captured.weights,
                                                captured.sequence, mix_seed(opt.seed, 78));
  const double windows = std::floor(horizon / (base.monitor_interval_sec *
                                               base.estimator_collect_every_ticks));
  L["estimator.us_per_observe"] = replay_estimator(
      cfg0, captured.weights, double(first.hits) / windows, mix_seed(opt.seed, 79));
  L["failed_fraction"] = double(report.failed) / double(report.attempted);
  return 0;
}

}  // namespace perfbench
