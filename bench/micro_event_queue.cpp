// Micro-benchmarks of the discrete-event kernel: the event queue is the
// hot path of every simulation (two heap ops per page request). Every row
// schedules through Simulator and fires through its dispatch loop, as a
// simulation does.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"

namespace {

using adattl::sim::EventHandle;
using adattl::sim::RngStream;
using adattl::sim::Simulator;

/// The memory a closure event's target keeps: a 128-byte record. Every
/// event below reads and writes its own record first, so these rows run
/// the path a simulation runs: Simulator::after or after_owned, and
/// fire_next (with its slot or record prefetch and the heap-level
/// prefetches) through run_until.
struct alignas(64) Record {
  std::uint64_t fired = 0;
  std::uint64_t rest[15] = {};
};
static_assert(sizeof(Record) == 128, "a record spans two cache lines");

/// An owned event's record, as the client pool keeps one per client: one
/// 64-byte line.
struct alignas(64) LineRecord {
  std::uint64_t fired = 0;
  std::uint64_t rest[7] = {};
};
static_assert(sizeof(LineRecord) == 64, "a client record is one cache line");

void BM_ScheduleFire(benchmark::State& state) {
  // n closure events at random times, then all of them fired.
  const int n = static_cast<int>(state.range(0));
  RngStream rng(1);
  std::vector<double> times(static_cast<std::size_t>(n));
  for (double& t : times) t = rng.uniform(0.0, 1e6);
  std::vector<Record> records(static_cast<std::size_t>(n));
  for (auto _ : state) {
    Simulator sim;
    for (std::size_t i = 0; i < times.size(); ++i) {
      Record* r = &records[i];
      sim.after(times[i], [r] { ++r->fired; });
    }
    sim.run_until(1e6);
  }
  benchmark::DoNotOptimize(records.front().fired);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScheduleFire)->Arg(1000)->Arg(10000)->Arg(100000);

/// Clients' think timers, as the simulator's owner: each firing of client
/// i's one pending event schedules its next one by index.
struct ChurnOwner {
  Simulator* sim;
  RngStream* rng;
  std::vector<LineRecord>* records;
  static void fire(void* ctx, std::uint32_t i) {
    const auto& self = *static_cast<const ChurnOwner*>(ctx);
    ++(*self.records)[i].fired;
    self.sim->after_owned(self.rng->exponential(15.0), i);
  }
};

void BM_SteadyStateOwnedLineFire(benchmark::State& state) {
  // The simulation's client pattern: ~#clients resident owned events on
  // one-line records, each firing scheduling its successor. One iteration
  // advances simulated time by the span in which about 64 events fall;
  // the rate counts the events fired.
  const int resident = static_cast<int>(state.range(0));
  RngStream rng(2);
  Simulator sim;
  std::vector<LineRecord> records(static_cast<std::size_t>(resident));
  ChurnOwner owner{&sim, &rng, &records};
  sim.set_owner({&ChurnOwner::fire, &owner, records.data(), sizeof(LineRecord)});
  for (std::uint32_t i = 0; i < records.size(); ++i) sim.after_owned(rng.uniform(0.0, 30.0), i);
  const double step = 64 * 15.0 / resident;
  double horizon = 0.0;
  std::uint64_t fired = 0;
  for (auto _ : state) fired += sim.run_until(horizon += step);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SteadyStateOwnedLineFire)->Arg(500)->Arg(5000)->Arg(50000);

void BM_CancelHeavyFire(benchmark::State& state) {
  // TTL-expiry style workloads cancel many events before they fire: half
  // of 10000 are cancelled, the rest fired.
  RngStream rng(3);
  std::vector<Record> records(10000);
  std::vector<EventHandle> handles;
  handles.reserve(records.size());
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    handles.clear();
    for (Record& rec : records) {
      Record* r = &rec;
      handles.push_back(sim.after(rng.uniform(0.0, 1e4), [r] { ++r->fired; }));
    }
    state.ResumeTiming();
    for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
    sim.run_until(1e4);
  }
  benchmark::DoNotOptimize(records.front().fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_CancelHeavyFire);

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
