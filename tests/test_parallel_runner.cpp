// The parallel sweep executor's headline contract: running the same
// configuration serially (ADATTL_JOBS=1 / a 1-job executor) and in
// parallel produces bit-identical RunResult vectors — same seeds, same
// ordering, same metrics — including replication counts that don't divide
// evenly by the worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/parallel_executor.h"
#include "experiment/runner.h"

using namespace adattl;

namespace {

experiment::SimulationConfig small_config(std::uint64_t seed = 7701) {
  experiment::SimulationConfig cfg;
  cfg.total_clients = 80;
  cfg.num_domains = 8;
  cfg.warmup_sec = 60.0;
  cfg.duration_sec = 240.0;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.seed = seed;
  return cfg;
}

// Field-by-field exact comparison: the determinism guarantee is
// *bit-identical*, so doubles are compared with ==, not tolerances.
void expect_identical_run(const experiment::RunResult& a, const experiment::RunResult& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.max_util_cdf.count(), b.max_util_cdf.count());
  EXPECT_EQ(a.max_util_cdf.counts(), b.max_util_cdf.counts());
  EXPECT_EQ(a.prob_below_090, b.prob_below_090);
  EXPECT_EQ(a.prob_below_098, b.prob_below_098);
  EXPECT_EQ(a.mean_max_utilization, b.mean_max_utilization);
  EXPECT_EQ(a.max_util_ci_relative, b.max_util_ci_relative);
  EXPECT_EQ(a.mean_server_util, b.mean_server_util);
  EXPECT_EQ(a.aggregate_utilization, b.aggregate_utilization);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.total_hits, b.total_hits);
  EXPECT_EQ(a.authoritative_queries, b.authoritative_queries);
  EXPECT_EQ(a.ns_cache_hits, b.ns_cache_hits);
  EXPECT_EQ(a.client_cache_hits, b.client_cache_hits);
  EXPECT_EQ(a.address_request_rate, b.address_request_rate);
  EXPECT_EQ(a.dns_controlled_fraction, b.dns_controlled_fraction);
  EXPECT_EQ(a.mean_ttl, b.mean_ttl);
  EXPECT_EQ(a.alarm_signals, b.alarm_signals);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mean_page_response_sec, b.mean_page_response_sec);
  EXPECT_EQ(a.per_server_response_sec, b.per_server_response_sec);
  EXPECT_EQ(a.response_p50_sec, b.response_p50_sec);
  EXPECT_EQ(a.response_p95_sec, b.response_p95_sec);
  EXPECT_EQ(a.response_p99_sec, b.response_p99_sec);
  EXPECT_EQ(a.mean_network_rtt_sec, b.mean_network_rtt_sec);
  EXPECT_EQ(a.redirected_pages, b.redirected_pages);
  EXPECT_EQ(a.redirected_fraction, b.redirected_fraction);
}

void expect_identical(const experiment::ReplicatedResult& a,
                      const experiment::ReplicatedResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    SCOPED_TRACE("replication " + std::to_string(i));
    expect_identical_run(a.runs[i], b.runs[i]);
  }
}

TEST(ParallelRunner, SerialAndParallelAreBitIdentical) {
  // 5 replications across 3 workers: the count deliberately does not
  // divide evenly by the job count.
  const int reps = 5;
  experiment::Sweep serial_sweep;
  serial_sweep.add(small_config(), reps);
  experiment::ParallelExecutor one(1);
  const experiment::SweepResult serial = serial_sweep.run(one);

  experiment::Sweep parallel_sweep;
  parallel_sweep.add(small_config(), reps);
  experiment::ParallelExecutor three(3);
  const experiment::SweepResult parallel = parallel_sweep.run(three);

  ASSERT_EQ(serial.points.size(), 1u);
  ASSERT_EQ(parallel.points.size(), 1u);
  expect_identical(serial.points[0], parallel.points[0]);

  // Seed derivation is the serial one: base, base+1, ...
  for (int i = 0; i < reps; ++i) {
    EXPECT_EQ(parallel.points[0].runs[static_cast<std::size_t>(i)].seed,
              small_config().seed + static_cast<std::uint64_t>(i));
  }
}

TEST(ParallelRunner, AdattlJobsEnvSelectsWorkerCountButNotResults) {
  ASSERT_EQ(setenv("ADATTL_JOBS", "1", 1), 0);
  const experiment::ReplicatedResult serial = experiment::run_replications(small_config(), 3);
  ASSERT_EQ(setenv("ADATTL_JOBS", "4", 1), 0);
  const experiment::ReplicatedResult parallel =
      experiment::run_replications(small_config(), 3);
  unsetenv("ADATTL_JOBS");
  expect_identical(serial, parallel);
}

TEST(ParallelRunner, MultiPointSweepPreservesOrderingAndSeeds) {
  const std::vector<std::uint64_t> seeds = {1000, 2000, 3000};
  const std::vector<std::string> policies = {"RR", "PRR2-TTL/K", "DRR2-TTL/S_K"};
  experiment::Sweep sweep;
  for (std::size_t p = 0; p < seeds.size(); ++p) {
    sweep.add_policy(small_config(seeds[p]), policies[p], 4);
  }
  experiment::ParallelExecutor executor(3);
  const experiment::SweepResult swept = sweep.run(executor);

  ASSERT_EQ(swept.points.size(), seeds.size());
  ASSERT_EQ(swept.point_cpu_seconds.size(), seeds.size());
  for (std::size_t p = 0; p < seeds.size(); ++p) {
    ASSERT_EQ(swept.points[p].runs.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      // Slot (p, i) holds exactly the run seeded seeds[p] + i: results are
      // positional, never completion-ordered.
      EXPECT_EQ(swept.points[p].runs[i].seed, seeds[p] + i);
    }
    EXPECT_GE(swept.point_cpu_seconds[p], 0.0);
  }
}

TEST(ParallelRunner, ProgressFiresOncePerPointWithMonotoneCompletion) {
  experiment::Sweep sweep;
  sweep.add_policy(small_config(11), "RR", 2, "first");
  sweep.add_policy(small_config(22), "RR2", 2, "second");
  sweep.add_policy(small_config(33), "WRR", 2, "third");

  std::vector<experiment::SweepPointDone> events;  // callback is serialized
  experiment::ParallelExecutor executor(4);
  sweep.run(executor, [&](const experiment::SweepPointDone& d) { events.push_back(d); });

  ASSERT_EQ(events.size(), 3u);
  std::vector<std::string> labels;
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].completed, k + 1);  // monotone, one per point
    EXPECT_EQ(events[k].total, 3u);
    EXPECT_GE(events[k].cpu_seconds, 0.0);
    EXPECT_GE(events[k].elapsed_seconds, 0.0);
    labels.push_back(events[k].label);
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(ParallelRunner, TaskExceptionsPropagateFromParallelRun) {
  experiment::Sweep sweep;
  sweep.add_policy(small_config(), "RR", 2);
  sweep.add_policy(small_config(), "NO-SUCH-POLICY", 2);
  experiment::ParallelExecutor executor(3);
  EXPECT_THROW(sweep.run(executor), std::exception);

  experiment::ParallelExecutor serial(1);
  EXPECT_THROW(sweep.run(serial), std::exception);
}

TEST(ParallelRunner, RejectsNonPositiveReplications) {
  experiment::Sweep sweep;
  EXPECT_THROW(sweep.add(small_config(), 0), std::invalid_argument);
  EXPECT_THROW(experiment::run_replications(small_config(), 0), std::invalid_argument);
}

TEST(ParallelRunner, ExecutorReusableAcrossBatches) {
  experiment::ParallelExecutor executor(2);
  experiment::Sweep sweep;
  sweep.add(small_config(), 2);
  const experiment::SweepResult first = sweep.run(executor);
  const experiment::SweepResult second = sweep.run(executor);
  expect_identical(first.points[0], second.points[0]);
}

TEST(ParallelRunner, OneJobRunsTheBatchInOrderOnTheCaller) {
  // A sharded site with ADATTL_JOBS=1 builds and runs its shards this
  // way: in shard order, on the thread that called.
  experiment::ParallelExecutor one(1);
  std::vector<int> order;
  std::vector<std::thread::id> threads;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, &threads, i] {
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    });
  }
  one.run(std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  for (const std::thread::id id : threads) EXPECT_EQ(id, std::this_thread::get_id());
}

// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ParallelRunner, ExecutorStartsWorkersOnlyForTasks) {
  // A pool starts a worker only when a batch has a task for it and keeps
  // it: a sweep of fewer replications than jobs holds no idle threads. A
  // sanitizer runtime starts a thread of its own with the process's first
  // one, so one is started and joined before counting.
  std::thread([] {}).join();
  const int before = process_threads();
  ASSERT_GT(before, 0);
  experiment::ParallelExecutor pool(8);
  EXPECT_EQ(pool.jobs(), 8);
  EXPECT_EQ(process_threads(), before);
  std::atomic<int> ran{0};
  const std::function<void()> task = [&ran] { ++ran; };
  pool.run({task, task});
  EXPECT_EQ(process_threads(), before + 1);
  pool.run({task, task});
  EXPECT_EQ(process_threads(), before + 1);
  pool.run(std::vector<std::function<void()>>(12, task));
  EXPECT_EQ(process_threads(), before + 7);
  EXPECT_EQ(ran.load(), 16);
}

// ---- ReplicatedResult::mean_cdf_curve edge cases ----

TEST(ParallelRunner, SweepSharesItsWidthWithShardedReplications) {
  // A sweep on J threads runs min(J, replications) replications at once
  // and gives each sharded one's pool the threads left over, so that at
  // J = 1 no site starts a thread and at J = 4 the sweep keeps to about
  // four busy threads.
  const auto sweep_of = [](std::initializer_list<int> replications) {
    experiment::Sweep sweep;
    for (int r : replications) sweep.add(small_config(), r);
    return sweep;
  };
  const experiment::Sweep one = sweep_of({1});
  const experiment::Sweep two = sweep_of({2});
  const experiment::Sweep three = sweep_of({1, 2});
  const experiment::Sweep four = sweep_of({1, 3});
  const experiment::Sweep eight = sweep_of({8});
  for (const experiment::Sweep* s : {&one, &two, &three, &four, &eight}) {
    EXPECT_EQ(s->site_workers(1), 1);
  }
  EXPECT_EQ(one.site_workers(4), 4);
  EXPECT_EQ(two.site_workers(4), 2);
  EXPECT_EQ(three.site_workers(4), 1);
  EXPECT_EQ(four.site_workers(4), 1);
  EXPECT_EQ(eight.site_workers(4), 1);

  // The width moves threads, never results.
  experiment::SimulationConfig cfg = small_config();
  cfg.shard_domains = true;
  cfg.shard_count = 4;
  experiment::Sweep sharded;
  sharded.add(cfg, 2);
  ASSERT_EQ(sharded.site_workers(4), 2);
  experiment::ParallelExecutor serial(1);
  experiment::ParallelExecutor wide(4);
  const experiment::SweepResult a = sharded.run(serial);
  const experiment::SweepResult b = sharded.run(wide);
  expect_identical(a.points.front(), b.points.front());
}

TEST(MeanCdfCurve, EmptyRunsYieldAllZeroCurve) {
  const experiment::ReplicatedResult empty;
  const auto curve = empty.mean_cdf_curve(4);
  ASSERT_EQ(curve.size(), 5u);
  for (const auto& [u, p] : curve) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_EQ(p, 0.0);
  }
  EXPECT_EQ(curve.front().first, 0.0);
  EXPECT_EQ(curve.back().first, 1.0);
}

TEST(MeanCdfCurve, SingleIntervalMatchesProbBelowEndpoints) {
  experiment::SimulationConfig cfg = small_config();
  cfg.duration_sec = 120.0;
  const experiment::ReplicatedResult rep = experiment::run_replications(cfg, 2);

  const auto curve = rep.mean_cdf_curve(1);  // points = 1: endpoints only
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_EQ(curve.front().first, 0.0);
  EXPECT_EQ(curve.back().first, 1.0);
  EXPECT_EQ(curve.front().second, rep.prob_below(0.0).mean);
  EXPECT_EQ(curve.back().second, rep.prob_below(1.0).mean);
}

TEST(MeanCdfCurve, EndpointsAgreeWithProbBelowAtDefaultResolution) {
  experiment::SimulationConfig cfg = small_config();
  cfg.duration_sec = 120.0;
  const experiment::ReplicatedResult rep = experiment::run_replications(cfg, 2);
  const auto curve = rep.mean_cdf_curve(50);
  ASSERT_EQ(curve.size(), 51u);
  EXPECT_EQ(curve.front().second, rep.prob_below(0.0).mean);
  EXPECT_EQ(curve.back().second, rep.prob_below(1.0).mean);
}

TEST(MeanCdfCurve, RejectsNonPositivePointCount) {
  const experiment::ReplicatedResult empty;
  EXPECT_THROW(empty.mean_cdf_curve(0), std::invalid_argument);
  EXPECT_THROW(empty.mean_cdf_curve(-3), std::invalid_argument);
}

}  // namespace
