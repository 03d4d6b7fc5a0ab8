// Micro-benchmarks of the discrete-event kernel: the event queue is the
// hot path of every simulation (two heap ops per page request).
#include <benchmark/benchmark.h>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using adattl::sim::EventHandle;
using adattl::sim::EventQueue;
using adattl::sim::RngStream;
using adattl::sim::Simulator;

void BM_SchedulePop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RngStream rng(1);
  std::vector<double> times(static_cast<std::size_t>(n));
  for (double& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    EventQueue q;
    for (double t : times) q.schedule(t, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulePop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SteadyStateChurn(benchmark::State& state) {
  // The simulation's actual access pattern: a queue holding ~#clients
  // events where each pop schedules a successor.
  const int resident = static_cast<int>(state.range(0));
  RngStream rng(2);
  EventQueue q;
  double now = 0.0;
  for (int i = 0; i < resident; ++i) q.schedule(rng.uniform(0.0, 30.0), [] {});
  for (auto _ : state) {
    auto [t, cb] = q.pop();
    now = t;
    q.schedule(now + rng.exponential(15.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateChurn)->Arg(500)->Arg(5000)->Arg(50000);

void BM_CancelHeavy(benchmark::State& state) {
  // TTL-expiry style workloads cancel many events before they fire.
  RngStream rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule(rng.uniform(0.0, 1e4), [] {}));
    }
    state.ResumeTiming();
    for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_CancelHeavy);

void BM_SimulatorDispatch(benchmark::State& state) {
  // Each step schedules a copy of itself: a functor of two pointers.
  struct Step {
    Simulator* sim;
    int* chain;
    void operator()() const {
      if (++*chain < 100000) sim->after(1.0, *this);
    }
  };
  for (auto _ : state) {
    Simulator sim;
    int chain = 0;
    sim.at(0.0, Step{&sim, &chain});
    sim.run();
    benchmark::DoNotOptimize(chain);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorDispatch);

}  // namespace
