// Micro-benchmarks of DNS scheduling decisions: latency of one address
// request through each policy family (the paper stresses that adaptive
// TTL has "low computational complexity" — this quantifies it).
#include <benchmark/benchmark.h>

#include "core/policy_factory.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "web/cluster.h"

namespace {

using namespace adattl;

struct Fixture {
  Fixture(const std::string& policy, int k = 20)
      : rng(7), alarms(7, 0.9) {
    core::SchedulerFactoryConfig fc;
    fc.capacities = web::table2_cluster(35).absolute_capacities();
    fc.initial_weights = sim::ZipfDistribution(k, 1.0).probabilities();
    fc.class_threshold = 1.0 / k;
    bundle = core::make_scheduler(policy, fc, alarms, simulator, rng);
  }
  sim::Simulator simulator;
  sim::RngStream rng;
  core::AlarmRegistry alarms;
  core::SchedulerBundle bundle;
};

void BM_Schedule(benchmark::State& state, const char* policy) {
  Fixture f(policy);
  sim::RngStream domains(8);
  int since_drain = 0;
  for (auto _ : state) {
    const int d = static_cast<int>(domains.uniform_int(0, 19));
    benchmark::DoNotOptimize(f.bundle.scheduler->schedule(d));
    // DAL/MRL schedule a decay event per decision; retire expired ones
    // outside the timed region so the event heap stays realistic in size.
    if (++since_drain == 4096) {
      state.PauseTiming();
      f.simulator.run_until(f.simulator.now() + 600.0);
      since_drain = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Schedule, RR, "RR");
BENCHMARK_CAPTURE(BM_Schedule, RR2, "RR2");
BENCHMARK_CAPTURE(BM_Schedule, RR3, "RR3");
BENCHMARK_CAPTURE(BM_Schedule, RRK, "RRK");
BENCHMARK_CAPTURE(BM_Schedule, PRR_TTL1, "PRR-TTL/1");
BENCHMARK_CAPTURE(BM_Schedule, PRR2_TTLK, "PRR2-TTL/K");
BENCHMARK_CAPTURE(BM_Schedule, DRR2_TTLSK, "DRR2-TTL/S_K");
BENCHMARK_CAPTURE(BM_Schedule, DAL, "DAL");
BENCHMARK_CAPTURE(BM_Schedule, MRL, "MRL");

void BM_WeightUpdateRecalibration(benchmark::State& state) {
  // Cost of one estimator push: model update + TTL recalibration, for the
  // most expensive policy (per-domain classes, server term).
  const int k = static_cast<int>(state.range(0));
  Fixture f("DRR2-TTL/S_K", k);
  std::vector<double> weights = sim::ZipfDistribution(k, 1.0).probabilities();
  for (auto _ : state) {
    weights[0] *= 1.0001;  // force a real update
    f.bundle.domains->update_weights(weights);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WeightUpdateRecalibration)->Arg(20)->Arg(100)->Arg(1000);

}  // namespace
