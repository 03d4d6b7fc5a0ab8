#include "experiment/sharded_site.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

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
    : config_(config.scaled()), slices_(config_), pool_(workers) {
  if (!config_.shard_domains) {
    throw std::invalid_argument("ShardedSite: config.shard_domains must be set");
  }
  if (workers < 1) throw std::invalid_argument("ShardedSite: workers must be >= 1");

  // ---- Shard layout: offered load balanced over min(S, D) shards ----
  const int num_shards = config_.slice_count();
  owner_ = partition_by_load(domain_set().true_weights(), num_shards);
  // One split per shard, in shard order, from the master stream, all drawn
  // here before any shard is built: the derivation depends only on (seed,
  // shard index), never on worker count or interleaving. One shard takes
  // the seed's own stream, as Site does, so a one-shard run is Site's run.
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
  slices_.build(std::move(specs), pool_);
}

RunResult ShardedSite::run(ParallelExecutor& executor) { return slices_.run(executor); }

RunResult ShardedSite::run() { return run(pool_); }

}  // namespace adattl::experiment
