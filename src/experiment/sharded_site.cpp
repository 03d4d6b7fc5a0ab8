#include "experiment/sharded_site.h"

#include <algorithm>
#include <functional>
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

ShardedSite::ShardedSite(const SimulationConfig& config) : ShardedSite(config, default_jobs()) {}

ShardedSite::ShardedSite(const SimulationConfig& config, int workers)
    : config_(config.scaled()), slices_(config_) {
  obs::Stopwatch setup_watch;
  if (!config_.shard_domains) {
    throw std::invalid_argument("ShardedSite: config.shard_domains must be set");
  }
  if (workers < 1) throw std::invalid_argument("ShardedSite: workers must be >= 1");

  // ---- Shard layout: offered load balanced over min(S, D) shards ----
  const int num_shards = std::min(config_.shard_count, config_.num_domains);
  owner_ = partition_by_load(domain_set().true_weights(), num_shards);
  // One split per shard, in shard order, from the master stream, all drawn
  // here before any shard is built: the derivation depends only on (seed,
  // shard index), never on worker count or interleaving. One shard takes
  // the seed's own stream, as Site does, so a one-shard run draws Site's
  // sample.
  sim::RngStream master(config_.seed);
  std::vector<SliceSet::SliceSpec> specs;
  for (int s = 0; s < num_shards; ++s) {
    std::vector<int> owned;
    for (int d = 0; d < config_.num_domains; ++d) {
      if (owner(d) == s) owned.push_back(d);
    }
    specs.push_back({std::move(owned),
                     num_shards == 1 ? sim::RngStream(config_.seed) : master.split()});
  }
  // Build the shards concurrently, on the pool that run() advances them on.
  pool_ = std::make_unique<ParallelExecutor>(std::min(workers, num_shards));
  slices_.build(std::move(specs), *pool_);
  // Cumulative busy time is 0 at t = 0, matching MonitorHub::start().
  prev_busy_.assign(static_cast<std::size_t>(num_shards),
                    std::vector<double>(static_cast<std::size_t>(config_.cluster.size()), 0.0));
  setup_seconds_ = setup_watch.elapsed();
}

void ShardedSite::monitor_tick(double now) {
  // Merge phase — fixed shard order on the caller's thread. A server's
  // site-wide utilization is the sum of its replicas' busy fractions over
  // the tick (clamped at 1: replicas can overlap in time since each has
  // the full capacity); queue depths sum.
  const std::size_t num_servers = static_cast<std::size_t>(config_.cluster.size());
  std::vector<double> util(num_servers, 0.0);
  std::vector<std::size_t> queues(num_servers, 0);
  for (int s = 0; s < shard_count(); ++s) {
    const web::Cluster& cluster = *shard(s).cluster;
    std::vector<double>& prev = prev_busy_[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < num_servers; ++i) {
      const double busy = cluster.server(static_cast<int>(i)).cumulative_busy_time(now);
      util[i] += (busy - prev[i]) / config_.monitor_interval_sec;
      prev[i] = busy;
      queues[i] += cluster.server(static_cast<int>(i)).queue_length();
    }
  }
  for (double& u : util) u = std::min(u, 1.0);
  slices_.feedback_tick(now, util, queues);
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
  std::vector<std::function<void()>> tasks(static_cast<std::size_t>(shard_count()));
  double next_tick = interval;
  bool warmup_lapped = false;
  while (true) {
    const double target = std::min(next_tick, horizon);
    for (int s = 0; s < shard_count(); ++s) {
      sim::Simulator* simulator = shard(s).sim.get();
      tasks[static_cast<std::size_t>(s)] = [simulator, target] { simulator->run_until(target); };
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

  RunResult r = slices_.reduce(horizon);
  r.profile = {setup_seconds_, warmup_wall, measurement_wall, phase_watch.lap()};
  return r;
}

RunResult ShardedSite::run() { return run(*pool_); }

}  // namespace adattl::experiment
