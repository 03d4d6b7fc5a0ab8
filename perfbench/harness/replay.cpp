#include "replay.h"

#include <algorithm>
#include <chrono>

#include "report.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace perfbench {

double replay_schedule(const std::string& policy, const adattl::core::SchedulerFactoryConfig& fc,
                       const adattl::core::AlarmRegistry& alarms,
                       const std::vector<adattl::web::DomainId>& sequence, std::uint64_t seed) {
  if (sequence.empty()) return 0.0;
  adattl::sim::Simulator sim;
  adattl::sim::RngStream rng(seed);
  adattl::core::SchedulerBundle bundle = adattl::core::make_scheduler(policy, fc, alarms, sim, rng);
  const std::size_t rounds = std::max<std::size_t>(1, 300000 / sequence.size());
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < rounds; ++k) {
    for (adattl::web::DomainId d : sequence) sink += bundle.scheduler->schedule(d).server;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  replay_sink = sink;
  return elapsed.count() * 1e9 / static_cast<double>(rounds * sequence.size());
}

}  // namespace perfbench
