// Population-scale throughput: events/sec as the client population grows
// 5k → 1M via the --scale knob (clients and capacity together, so the
// per-client load — and thus events per client per simulated second — is
// invariant and the sweep isolates the kernel + pool scaling behavior).
//
// BM_ScaleClients runs the domain-sharded mode (the intended vehicle for
// large populations) at 500k and 1M clients, and BM_ScaleClientsSmall the
// same at 5k and 50k; BM_ScaleSetup times its construction alone at 200k
// and 1M clients; BM_ScaleShards holds 200k clients and varies the
// shard count (1, 2, 4), which shows what the shards' parallelism and
// their smaller per-shard working sets buy at a fixed population;
// BM_ScaleClientsSerial (50k) and BM_ScaleClientsSerialSmall (5k) keep
// two unsharded reference points, each at 1 and 2 workers: with two, the
// serial run draws its service times on a helper thread. BM_MillionClientDay
// is the headline: one million clients through a multi-hour simulated
// day, end to end. Every population row may use worker threads, so they
// report items/s per wall second (UseRealTime), not per second of
// main-thread CPU.
#include <benchmark/benchmark.h>

#include <memory>

#include "experiment/sharded_site.h"
#include "experiment/site.h"

namespace {

using namespace adattl;

experiment::SimulationConfig scale_config(std::int64_t clients, double warmup,
                                          double duration) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(35);
  cfg.policy = "DRR2-TTL/S_K";
  cfg.warmup_sec = warmup;
  cfg.duration_sec = duration;
  cfg.seed = 4242;
  cfg.scale = static_cast<double>(clients) / cfg.total_clients;
  return cfg;
}

void BM_ScaleClients(benchmark::State& state) {
  const std::int64_t clients = state.range(0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::SimulationConfig cfg = scale_config(clients, 60.0, 240.0);
    cfg.shard_domains = true;
    cfg.shard_count = 4;
    experiment::ShardedSite site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
// Ten repetitions per population, as for the shard counts: with three, a
// row's range was too wide to resolve a change under about 40%.
BENCHMARK(BM_ScaleClients)
    ->Arg(500000)
    ->Arg(1000000)
    ->Iterations(1)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleClientsSmall(benchmark::State& state) {
  // The populations that fit in the caches, in a family of their own and
  // so in a process of their own (tools/run_benches.py): interleaved with
  // the multi-second 1M row, a 15 ms 5k row measured what that row left
  // behind.
  BM_ScaleClients(state);
}
BENCHMARK(BM_ScaleClientsSmall)
    ->Arg(5000)
    ->Arg(50000)
    ->Iterations(1)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleSetup(benchmark::State& state) {
  // Construction alone, on 4 shards: every shard's clients, event slots
  // and first sessions, built on the site's pool (sized by ADATTL_JOBS).
  // Each iteration destroys its site untimed. A serial build then reuses
  // pages the previous site touched; a concurrent one allocates in the
  // pool threads' malloc arenas, which hand much of that memory back, so
  // its figure depends on what ran earlier in the process. Ten
  // repetitions, since a build moves by a few milliseconds.
  const std::int64_t clients = state.range(0);
  experiment::SimulationConfig cfg = scale_config(clients, 60.0, 240.0);
  cfg.shard_domains = true;
  cfg.shard_count = 4;
  for (auto _ : state) {
    auto site = std::make_unique<experiment::ShardedSite>(cfg);
    benchmark::DoNotOptimize(site.get());
    state.PauseTiming();
    site.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_ScaleSetup)
    ->Arg(200000)
    ->Arg(1000000)
    ->Iterations(5)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScaleShards(benchmark::State& state) {
  // Ten repetitions: with three, a row's range was too wide to resolve a
  // change under about 40%.
  const int shards = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::SimulationConfig cfg = scale_config(200000, 60.0, 240.0);
    cfg.shard_domains = true;
    cfg.shard_count = shards;
    experiment::ShardedSite site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScaleShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Args: clients, workers.
void BM_ScaleClientsSerial(benchmark::State& state) {
  const std::int64_t clients = state.range(0);
  const int workers = static_cast<int>(state.range(1));
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::Site site(scale_config(clients, 60.0, 240.0), workers);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScaleClientsSerial)
    ->Args({50000, 1})
    ->Args({50000, 2})
    ->Iterations(1)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The 35 ms row in a family, and so a process, of its own: interleaved
// with the 0.43 s 50k row, its ten repetitions spread by +-25%.
void BM_ScaleClientsSerialSmall(benchmark::State& state) { BM_ScaleClientsSerial(state); }
BENCHMARK(BM_ScaleClientsSerialSmall)
    ->Args({5000, 1})
    ->Args({5000, 2})
    ->Iterations(1)
    ->Repetitions(10)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MillionClientDay(benchmark::State& state) {
  // One million clients through a 4-hour measured day (plus 10 min
  // warm-up). A single iteration and a single repetition: the run itself
  // is the statistic, and it takes minutes.
  std::uint64_t events = 0;
  for (auto _ : state) {
    experiment::SimulationConfig cfg = scale_config(1000000, 600.0, 14400.0);
    cfg.shard_domains = true;
    cfg.shard_count = 4;
    experiment::ShardedSite site(cfg);
    const experiment::RunResult r = site.run();
    events += r.events_dispatched;
    benchmark::DoNotOptimize(r.prob_below_098);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MillionClientDay)
    ->Iterations(1)
    ->Repetitions(1)
    ->UseRealTime()
    ->Unit(benchmark::kSecond);

}  // namespace
