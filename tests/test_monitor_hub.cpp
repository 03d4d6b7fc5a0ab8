#include "web/monitor_hub.h"

#include <gtest/gtest.h>

namespace adattl::web {
namespace {

class MonitorHubTest : public ::testing::Test {
 protected:
  MonitorHubTest() : rng(42), cluster(simulator, spec(), 4, rng) {}

  static ClusterSpec spec() {
    ClusterSpec s;
    s.relative = {1.0, 0.5};
    s.total_capacity_hits_per_sec = 150.0;  // capacities 100 and 50
    return s;
  }

  sim::Simulator simulator;
  sim::RngStream rng;
  Cluster cluster;
};

TEST_F(MonitorHubTest, TicksAtTheConfiguredInterval) {
  MonitorHub hub(simulator, cluster, 8.0);
  std::vector<double> tick_times;
  hub.add_full_observer(
      [&](sim::SimTime now, const std::vector<double>&, const std::vector<std::size_t>&) {
        tick_times.push_back(now);
      });
  hub.start();
  simulator.run_until(40.0);
  EXPECT_EQ(tick_times, (std::vector<double>{8, 16, 24, 32, 40}));
}

TEST_F(MonitorHubTest, IdleServersReportZeroUtilization) {
  MonitorHub hub(simulator, cluster, 8.0);
  std::vector<double> last;
  hub.add_full_observer([&](sim::SimTime, const std::vector<double>& u,
                            const std::vector<std::size_t>&) { last = u; });
  hub.start();
  simulator.run_until(8.0);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_DOUBLE_EQ(last[0], 0.0);
  EXPECT_DOUBLE_EQ(last[1], 0.0);
}

TEST_F(MonitorHubTest, SaturatedServerReportsFullUtilization) {
  // Swamp server 1 (capacity 50 hits/s) with far more work than one window.
  for (int i = 0; i < 200; ++i) cluster.server(1).submit_page(PageRequest{0, 10, nullptr});
  MonitorHub hub(simulator, cluster, 8.0);
  std::vector<double> last;
  hub.add_full_observer([&](sim::SimTime, const std::vector<double>& u,
                            const std::vector<std::size_t>&) { last = u; });
  hub.start();
  simulator.run_until(8.0);
  EXPECT_NEAR(last[1], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(last[0], 0.0);
}

TEST_F(MonitorHubTest, UtilizationIsPerWindowNotCumulative) {
  // Busy in the first window only; the second window must read ~0.
  for (int i = 0; i < 20; ++i) cluster.server(0).submit_page(PageRequest{0, 10, nullptr});
  MonitorHub hub(simulator, cluster, 8.0);
  std::vector<std::vector<double>> windows;
  hub.add_full_observer([&](sim::SimTime, const std::vector<double>& u,
                            const std::vector<std::size_t>&) { windows.push_back(u); });
  hub.start();
  simulator.run_until(16.0);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_GT(windows[0][0], 0.1);
  EXPECT_LT(windows[1][0], 0.05);
}

TEST_F(MonitorHubTest, MultipleObserversAllNotified) {
  MonitorHub hub(simulator, cluster, 4.0);
  int calls_a = 0, calls_b = 0;
  hub.add_full_observer(
      [&](sim::SimTime, const std::vector<double>&, const std::vector<std::size_t>&) {
        ++calls_a;
      });
  hub.add_full_observer(
      [&](sim::SimTime, const std::vector<double>&, const std::vector<std::size_t>&) {
        ++calls_b;
      });
  hub.start();
  simulator.run_until(12.0);
  EXPECT_EQ(calls_a, 3);
  EXPECT_EQ(calls_b, 3);
}

TEST_F(MonitorHubTest, FullObserverReceivesQueueLengths) {
  MonitorHub hub(simulator, cluster, 8.0);
  std::vector<std::size_t> queues;
  hub.add_full_observer([&](sim::SimTime, const std::vector<double>&,
                            const std::vector<std::size_t>& q) { queues = q; });
  // Pause server 1 so its queue is still visible at the tick.
  cluster.server(1).set_paused(true);
  for (int i = 0; i < 3; ++i) cluster.server(1).submit_page(PageRequest{0, 10, nullptr});
  hub.start();
  simulator.run_until(8.0);
  ASSERT_EQ(queues.size(), 2u);
  EXPECT_EQ(queues[0], 0u);
  EXPECT_EQ(queues[1], 3u);
  EXPECT_EQ(hub.last_queue_lengths()[1], 3u);
}

TEST_F(MonitorHubTest, RejectsNonPositiveInterval) {
  EXPECT_THROW(MonitorHub(simulator, cluster, 0.0), std::invalid_argument);
}

TEST_F(MonitorHubTest, LastUtilizationsExposed) {
  MonitorHub hub(simulator, cluster, 8.0);
  hub.start();
  simulator.run_until(8.0);
  EXPECT_EQ(hub.last_utilizations().size(), 2u);
}

}  // namespace
}  // namespace adattl::web
