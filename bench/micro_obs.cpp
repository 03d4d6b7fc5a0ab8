// Observability overhead: the cost of one histogram sample and one tracer
// record in isolation. The end-to-end cost of the whole layer is
// BM_FullSite/DRR2_TTLSK_obs over BM_FullSite/DRR2_TTLSK in
// micro_simulation.
#include <benchmark/benchmark.h>

#include "obs/event_tracer.h"
#include "sim/stats.h"

namespace {

using namespace adattl;

void BM_HistogramObserve(benchmark::State& state) {
  // The shape of the TTL histograms a metrics-enabled run fills.
  sim::Histogram h(3600.0, 144);
  double x = 0.0;
  for (auto _ : state) {
    h.add(x);
    x += 37.0;
    if (x > 4000.0) x = 0.0;
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_TracerRecord(benchmark::State& state) {
  obs::EventTracer tracer(1 << 16);
  double t = 0.0;
  for (auto _ : state) {
    tracer.record(t, obs::TraceKind::kDecision, 3, 2, 240.0);
    t += 0.25;
    benchmark::DoNotOptimize(tracer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRecord);

}  // namespace
