// The monitor clock every run is driven by (SliceSet::run): when the ticks
// fire, what site-wide view they merge from one or several slices, and who
// sees it.
#include "experiment/site_slice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "experiment/parallel_executor.h"

namespace adattl::experiment {
namespace {

// Two servers (capacities 2:1), both loaded by round-robin mapping.
SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.cluster.relative = {1.0, 0.5};
  cfg.policy = "RR";
  cfg.total_clients = 100;
  cfg.num_domains = 4;
  cfg.warmup_sec = 0.0;
  cfg.duration_sec = 40.0;
  cfg.seed = 11;
  return cfg;
}

// `slices` slices over the domains dealt round-robin, built on this thread.
void build(SliceSet& set, const SimulationConfig& cfg, int slices) {
  std::vector<SliceSet::SliceSpec> specs;
  sim::RngStream master(cfg.seed);
  for (int s = 0; s < slices; ++s) specs.push_back({{}, master.split()});
  for (int d = 0; d < cfg.num_domains; ++d) {
    specs[static_cast<std::size_t>(d % slices)].domains.push_back(d);
  }
  ParallelExecutor caller(1);
  set.build(std::move(specs), caller);
}

TEST(SliceSet, TicksEveryIntervalAndOnTheHorizon) {
  for (const double duration : {40.0, 44.0}) {  // the horizon on a tick, then between two
    SCOPED_TRACE(duration);
    SimulationConfig cfg = small_config();
    cfg.duration_sec = duration;
    SliceSet set(cfg);
    build(set, cfg, 2);
    std::vector<double> first;
    std::vector<double> second;
    set.add_full_observer([&](sim::SimTime now, const std::vector<double>&,
                              const std::vector<std::size_t>&) { first.push_back(now); });
    set.add_full_observer([&](sim::SimTime now, const std::vector<double>&,
                              const std::vector<std::size_t>&) { second.push_back(now); });
    ParallelExecutor pool(2);
    const RunResult r = set.run(pool);
    EXPECT_EQ(first, (std::vector<double>{8, 16, 24, 32, 40}));
    EXPECT_EQ(second, first);
    // The event count is the kernels' plus one per tick.
    std::uint64_t kernel = 0;
    for (int s = 0; s < set.size(); ++s) kernel += set[s].sim->events_dispatched();
    EXPECT_EQ(r.events_dispatched, kernel + first.size());
    EXPECT_THROW(set.run(pool), std::logic_error);
  }
}

// Each tick's view, recomputed from the slices' servers as the tick sees
// them: a server's utilization is its busy time over the window (summed
// over the slices and clamped at 1 when there are several), and its queue
// depth the sum of its replicas'. Server 1 is paused for the whole run, so
// its utilization reads 0 while its queue grows.
TEST(SliceSet, ViewIsEachWindowsBusyFractionAndQueueDepth) {
  for (const int slices : {1, 3}) {
    SCOPED_TRACE(slices);
    SimulationConfig cfg = small_config();
    cfg.faults.pauses.push_back({0.0, 1000.0, 1});
    SliceSet set(cfg);
    build(set, cfg, slices);
    const std::size_t servers = static_cast<std::size_t>(cfg.cluster.size());
    std::vector<std::vector<double>> prev(static_cast<std::size_t>(slices),
                                          std::vector<double>(servers, 0.0));
    int ticks = 0;
    double busiest = 0.0;
    std::size_t last_paused_queue = 0;
    set.add_full_observer([&](sim::SimTime now, const std::vector<double>& util,
                              const std::vector<std::size_t>& queues) {
      ++ticks;
      ASSERT_EQ(util.size(), servers);
      ASSERT_EQ(queues.size(), servers);
      for (std::size_t i = 0; i < servers; ++i) {
        double expected = 0.0;
        std::size_t queue = 0;
        for (int s = 0; s < slices; ++s) {
          const web::WebServer& server = set[s].cluster->server(static_cast<int>(i));
          const double busy = server.cumulative_busy_time(now);
          expected += (busy - prev[static_cast<std::size_t>(s)][i]) / cfg.monitor_interval_sec;
          prev[static_cast<std::size_t>(s)][i] = busy;
          queue += server.queue_length();
        }
        if (slices > 1) expected = std::min(expected, 1.0);
        EXPECT_EQ(util[i], expected) << "server " << i << " at " << now;
        EXPECT_EQ(queues[i], queue) << "server " << i << " at " << now;
      }
      EXPECT_EQ(util[1], 0.0);
      busiest = std::max(busiest, util[0]);
      last_paused_queue = queues[1];
    });
    ParallelExecutor pool(slices);
    set.run(pool);
    EXPECT_EQ(ticks, 5);
    EXPECT_GT(busiest, 0.0);
    EXPECT_GT(last_paused_queue, 0u);
  }
}

// A site far below its offered load keeps every server busy: one slice
// reads a full window as 1, and several slices, whose replicas are each
// busy the whole window, merge to exactly 1.
TEST(SliceSet, SaturatedServersReportFullUtilization) {
  for (const int slices : {1, 2}) {
    SCOPED_TRACE(slices);
    SimulationConfig cfg = small_config();
    cfg.cluster.total_capacity_hits_per_sec = 5.0;
    cfg.duration_sec = 80.0;
    SliceSet set(cfg);
    build(set, cfg, slices);
    std::vector<double> last;
    set.add_full_observer([&](sim::SimTime, const std::vector<double>& util,
                              const std::vector<std::size_t>&) { last = util; });
    ParallelExecutor pool(slices);
    set.run(pool);
    ASSERT_EQ(last.size(), static_cast<std::size_t>(cfg.cluster.size()));
    for (double u : last) {
      if (slices > 1) {
        EXPECT_EQ(u, 1.0);
      } else {
        EXPECT_NEAR(u, 1.0, 1e-9);
      }
    }
  }
}

// A traced run's utilization view holds one row per tick, with the view
// that the tick's observers saw, however many slices merged it.
TEST(SliceSet, TraceHoldsTheViewOfEveryTick) {
  for (const int slices : {1, 3}) {
    SCOPED_TRACE(slices);
    SimulationConfig cfg = small_config();
    cfg.trace_enabled = true;
    SliceSet set(cfg);
    build(set, cfg, slices);
    std::string expected = "time,s0,s1,max\n";
    set.add_full_observer([&](sim::SimTime now, const std::vector<double>& util,
                              const std::vector<std::size_t>&) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", now);
      expected += buf;
      for (double u : util) {
        std::snprintf(buf, sizeof(buf), ",%.6f", u);
        expected += buf;
      }
      std::snprintf(buf, sizeof(buf), ",%.6f\n", *std::max_element(util.begin(), util.end()));
      expected += buf;
    });
    ParallelExecutor pool(slices);
    const RunResult r = set.run(pool);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_EQ(r.trace->to_utilization_csv(), expected);
    // Every slice records into a ring of its own.
    for (int s = 0; s < set.size(); ++s) EXPECT_NE(set[s].tracer, nullptr) << s;
  }
}

// The monitor hub of a run: the tick SliceSet::run fires every monitor
// interval and the view it hands every observer. The fixture's one slice
// owns no domain, so no client runs and the two servers (capacities 100 and
// 50 hits/s) serve only the pages a test submits before the run.
class MonitorHubTest : public ::testing::Test {
 protected:
  MonitorHubTest() {
    cfg.cluster.relative = {1.0, 0.5};
    cfg.cluster.total_capacity_hits_per_sec = 150.0;
    cfg.num_domains = 4;
    cfg.total_clients = 100;
    cfg.warmup_sec = 0.0;
  }

  // Builds the set for ticks every `interval` up to the horizon `duration`.
  void build_set(double interval, double duration) {
    cfg.monitor_interval_sec = interval;
    cfg.duration_sec = duration;
    set = std::make_unique<SliceSet>(cfg);
    std::vector<SliceSet::SliceSpec> specs;
    specs.push_back({{}, sim::RngStream(cfg.seed)});
    ParallelExecutor caller(1);
    set->build(std::move(specs), caller);
  }

  web::WebServer& server(int i) { return (*set)[0].cluster->server(i); }

  void run() {
    ParallelExecutor pool(1);
    set->run(pool);
  }

  SimulationConfig cfg;
  std::unique_ptr<SliceSet> set;
};

TEST_F(MonitorHubTest, TicksAtTheConfiguredInterval) {
  build_set(8.0, 40.0);
  std::vector<double> tick_times;
  set->add_full_observer([&](sim::SimTime now, const std::vector<double>&,
                             const std::vector<std::size_t>&) { tick_times.push_back(now); });
  run();
  EXPECT_EQ(tick_times, (std::vector<double>{8, 16, 24, 32, 40}));
}

TEST_F(MonitorHubTest, IdleServersReportZeroUtilization) {
  build_set(8.0, 8.0);
  std::vector<double> last;
  set->add_full_observer([&](sim::SimTime, const std::vector<double>& u,
                             const std::vector<std::size_t>&) { last = u; });
  run();
  ASSERT_EQ(last.size(), 2u);
  EXPECT_DOUBLE_EQ(last[0], 0.0);
  EXPECT_DOUBLE_EQ(last[1], 0.0);
}

TEST_F(MonitorHubTest, UtilizationIsPerWindowNotCumulative) {
  // Busy in the first window only; the second window must read ~0.
  build_set(8.0, 16.0);
  for (int i = 0; i < 20; ++i) server(0).submit_page(web::PageRequest{0, 10, nullptr});
  std::vector<std::vector<double>> windows;
  set->add_full_observer([&](sim::SimTime, const std::vector<double>& u,
                             const std::vector<std::size_t>&) { windows.push_back(u); });
  run();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_GT(windows[0][0], 0.1);
  EXPECT_LT(windows[1][0], 0.05);
}

TEST_F(MonitorHubTest, MultipleObserversAllNotified) {
  build_set(4.0, 12.0);
  int calls_a = 0, calls_b = 0;
  set->add_full_observer(
      [&](sim::SimTime, const std::vector<double>&, const std::vector<std::size_t>&) {
        ++calls_a;
      });
  set->add_full_observer(
      [&](sim::SimTime, const std::vector<double>&, const std::vector<std::size_t>&) {
        ++calls_b;
      });
  run();
  EXPECT_EQ(calls_a, 3);
  EXPECT_EQ(calls_b, 3);
}

TEST_F(MonitorHubTest, FullObserverReceivesQueueLengths) {
  build_set(8.0, 8.0);
  std::vector<std::size_t> queues;
  set->add_full_observer([&](sim::SimTime, const std::vector<double>&,
                             const std::vector<std::size_t>& q) { queues = q; });
  // Pause server 1 so its queue is still visible at the tick.
  server(1).set_paused(true);
  for (int i = 0; i < 3; ++i) server(1).submit_page(web::PageRequest{0, 10, nullptr});
  run();
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], 0u);
  EXPECT_EQ(queues[1], 3u);
  EXPECT_EQ(server(1).queue_length(), 3u);
}

}  // namespace
}  // namespace adattl::experiment
