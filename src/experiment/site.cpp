#include "experiment/site.h"

#include <numeric>
#include <stdexcept>

namespace adattl::experiment {

Site::Site(const SimulationConfig& config) : config_(config.scaled()), slices_(config_) {
  if (config_.shard_domains) {
    throw std::invalid_argument("Site: shard_domains configs require ShardedSite");
  }

  // One slice owns every domain and draws from the master stream itself.
  std::vector<int> all(static_cast<std::size_t>(config_.num_domains));
  std::iota(all.begin(), all.end(), 0);
  ParallelExecutor caller(1);  // the one slice builds on this thread
  slices_.build({{std::move(all), sim::RngStream(config_.seed)}}, caller);
}

Site::Site(const SimulationConfig& config, int workers) : Site(config) {
  if (workers < 1) throw std::invalid_argument("Site: workers must be >= 1");
  workers_ = workers;
}

dnscache::NameServer& Site::name_server(int d, int replica) {
  if (d < 0 || d >= config_.num_domains || replica < 0 || replica >= config_.ns_per_domain) {
    throw std::out_of_range("Site::name_server: no such domain or NS replica");
  }
  return *slice().name_servers[static_cast<std::size_t>(d * config_.ns_per_domain + replica)];
}

RunResult Site::run() {
  // The slice runs on this thread; a second job is the helper's core. The
  // default is read here, not at construction, which is timed as set-up.
  ParallelExecutor pool(workers_ > 0 ? workers_ : default_jobs());
  return slices_.run(pool);
}

}  // namespace adattl::experiment
