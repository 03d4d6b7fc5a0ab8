// End-to-end simulator throughput: simulated seconds per wall-clock
// second for the paper's default scenario. Validates that full 5-hour
// paper runs are cheap (they dispatch ~1.5M events each).
//
// Every full-site case is one BM_FullSite variant of the same run, so
// the cost of a layer (a fault schedule, metrics and tracing) is the
// ratio of two cases' interleaved repetitions in one process. A site's
// run may draw its service times on a helper thread (ADATTL_JOBS above
// 1), so the rates are per wall second (UseRealTime), not per second of
// the main thread's CPU.
#include <benchmark/benchmark.h>

#include "experiment/site.h"

namespace {

using namespace adattl;
using experiment::SimulationConfig;

void as_configured(SimulationConfig&) {}

/// The DNS estimates hidden loads from server reports instead of reading
/// the true weights.
void measured(SimulationConfig& cfg) { cfg.oracle_weights = false; }

/// A crash, a capacity degradation and an authoritative-DNS outage, all
/// inside the measured window.
void chaos(SimulationConfig& cfg) {
  cfg.faults.crashes.push_back({150.0, 120.0, 2});
  cfg.faults.degradations.push_back({200.0, 150.0, 1, 0.5});
  cfg.faults.dns_outages.push_back({180.0, 60.0});
}

/// The metrics snapshot and the event tracer on.
void observed(SimulationConfig& cfg) {
  cfg.metrics_enabled = true;
  cfg.trace_enabled = true;
}

void BM_FullSite(benchmark::State& state, const char* policy,
                 void (*variant)(SimulationConfig&)) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    SimulationConfig cfg;
    cfg.cluster = web::table2_cluster(35);
    cfg.policy = policy;
    cfg.warmup_sec = 60.0;
    cfg.duration_sec = 540.0;  // 10 simulated minutes per iteration
    cfg.seed = 1000 + static_cast<std::uint64_t>(state.iterations());
    variant(cfg);
    experiment::Site site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(BM_FullSite, RR, "RR", as_configured)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullSite, RR_chaos, "RR", chaos)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullSite, DRR2_TTLSK, "DRR2-TTL/S_K", as_configured)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullSite, DRR2_TTLSK_obs, "DRR2-TTL/S_K", observed)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullSite, PRR2_TTLK_measured, "PRR2-TTL/K", measured)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SiteConstruction(benchmark::State& state) {
  // Object-graph build cost (500 clients, 7 servers, 20 name servers).
  for (auto _ : state) {
    SimulationConfig cfg;
    cfg.policy = "DRR2-TTL/S_K";
    experiment::Site site(cfg);
    benchmark::DoNotOptimize(&site);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SiteConstruction)->Unit(benchmark::kMicrosecond);

}  // namespace
