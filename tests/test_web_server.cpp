#include "web/web_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/site.h"
#include "page_recorder.h"
#include "sim/log_ring.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "web/cluster.h"

namespace adattl::web {
namespace {

class WebServerTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  sim::RngStream rng{1234};
};

TEST_F(WebServerTest, RejectsBadConstruction) {
  EXPECT_THROW(WebServer(simulator, 0, 0.0, 5, rng.split()), std::invalid_argument);
  EXPECT_THROW(WebServer(simulator, 0, -1.0, 5, rng.split()), std::invalid_argument);
  EXPECT_THROW(WebServer(simulator, 0, 10.0, 0, rng.split()), std::invalid_argument);
}

TEST_F(WebServerTest, ServesAPageAndInvokesCompletion) {
  WebServer s(simulator, 0, 100.0, 3, rng.split());
  PageRecorder client;
  s.submit_page(client.page(1, 10, 7));
  simulator.run();
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{7}));
  EXPECT_TRUE(client.failed.empty());
  EXPECT_EQ(s.pages_served(), 1u);
  EXPECT_EQ(s.hits_served(), 10u);
}

TEST_F(WebServerTest, ServiceTimeScalesWithHitsAndCapacity) {
  WebServer s(simulator, 0, 50.0, 1, rng.split());
  // Mean service of a 10-hit page at 50 hits/s is 0.2 s; with many pages
  // the average must converge (Erlang mean).
  const int pages = 5000;
  int completed = 0;
  double submit_time = 0.0;
  sim::RunningStat durations;
  // Submit sequentially: next page only after the previous completes, so
  // queueing never inflates the measured service time.
  PageRecorder client;
  const auto submit = [&] {
    if (completed == pages) return;
    submit_time = simulator.now();
    s.submit_page(client.page(0, 10));
  };
  client.then_on_done = [&](std::uint32_t) {
    durations.add(simulator.now() - submit_time);
    ++completed;
    submit();
  };
  submit();
  simulator.run();
  EXPECT_EQ(completed, pages);
  EXPECT_NEAR(durations.mean(), 0.2, 0.01);
}

TEST_F(WebServerTest, FifoOrderPreserved) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  PageRecorder client;
  for (std::uint32_t i = 0; i < 5; ++i) s.submit_page(client.page(0, 5, i));
  simulator.run();
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST_F(WebServerTest, BusyTimeAccountsQueueingCorrectly) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  for (int i = 0; i < 20; ++i) s.submit_page(PageRequest{0, 10, nullptr});
  simulator.run();
  // 200 hits at 100 hits/s: expected total busy ~2 s (stochastic).
  const double busy = s.cumulative_busy_time(simulator.now());
  EXPECT_GT(busy, 1.0);
  EXPECT_LT(busy, 4.0);
  // The server was saturated the whole run: busy time == makespan.
  EXPECT_NEAR(busy, simulator.now(), 1e-9);
}

TEST_F(WebServerTest, BusyTimeProratesInProgressService) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.submit_page(PageRequest{0, 15, nullptr});
  // Just after submission, prorated busy time is ~0 and grows with now.
  const double early = s.cumulative_busy_time(simulator.now());
  EXPECT_NEAR(early, 0.0, 1e-12);
  simulator.run_until(0.05);
  const double later = s.cumulative_busy_time(simulator.now());
  EXPECT_GT(later, 0.0);
  EXPECT_LE(later, 0.05 + 1e-12);
}

TEST_F(WebServerTest, IdleServerAccumulatesNoBusyTime) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  simulator.run_until(100.0);
  EXPECT_DOUBLE_EQ(s.cumulative_busy_time(simulator.now()), 0.0);
}

TEST_F(WebServerTest, DomainHitCountersAccumulateAtArrival) {
  WebServer s(simulator, 0, 100.0, 3, rng.split());
  s.submit_page(PageRequest{0, 7, nullptr});
  s.submit_page(PageRequest{2, 5, nullptr});
  s.submit_page(PageRequest{2, 6, nullptr});
  // Counters reflect submissions even before service completes.
  EXPECT_EQ(s.lifetime_domain_hits()[0], 7u);
  EXPECT_EQ(s.lifetime_domain_hits()[1], 0u);
  EXPECT_EQ(s.lifetime_domain_hits()[2], 11u);
}

TEST_F(WebServerTest, DrainReturnsWindowAndResets) {
  WebServer s(simulator, 0, 100.0, 2, rng.split());
  s.submit_page(PageRequest{1, 9, nullptr});
  const auto first = s.drain_domain_hits();
  EXPECT_EQ(first[1], 9u);
  const auto second = s.drain_domain_hits();
  EXPECT_EQ(second[1], 0u);
  // Lifetime counters survive draining.
  EXPECT_EQ(s.lifetime_domain_hits()[1], 9u);
}

TEST_F(WebServerTest, RejectsInvalidPages) {
  WebServer s(simulator, 0, 100.0, 2, rng.split());
  EXPECT_THROW(s.submit_page(PageRequest{0, 0, nullptr}), std::invalid_argument);
  EXPECT_THROW(s.submit_page(PageRequest{5, 1, nullptr}), std::out_of_range);
}

TEST_F(WebServerTest, QueueLengthCountsWaitingAndInService) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  EXPECT_EQ(s.queue_length(), 0u);
  s.submit_page(PageRequest{0, 5, nullptr});
  s.submit_page(PageRequest{0, 5, nullptr});
  s.submit_page(PageRequest{0, 5, nullptr});
  EXPECT_EQ(s.queue_length(), 3u);
  simulator.run();
  EXPECT_EQ(s.queue_length(), 0u);
}

TEST_F(WebServerTest, ResponseTimeIncludesQueueing) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  for (int i = 0; i < 50; ++i) s.submit_page(PageRequest{0, 10, nullptr});
  simulator.run();
  // The 50th page waited for ~49 services: mean response must far exceed
  // one service time (0.1 s).
  EXPECT_GT(s.response_time().mean(), 0.5);
  EXPECT_EQ(s.response_time().count(), 50u);
}

TEST_F(WebServerTest, QueueDepthGaugeMatchesQueueLengthConvention) {
  // The "server.<id>.queue_depth" metric is queue_length(): waiting pages
  // PLUS the in-service one, the convention monitor reports use too.
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.submit_page(PageRequest{0, 5, nullptr});  // in service
  s.submit_page(PageRequest{0, 5, nullptr});  // waiting
  EXPECT_EQ(s.queue_length(), 2u);  // not 1: the in-service page counts

  // Cut off mid-run, the site's snapshot reports each server's
  // queue_length() and its busy time closed at the last completion.
  experiment::SimulationConfig config;
  config.cluster = table2_cluster(35);
  config.num_domains = 8;
  config.total_clients = 300;
  config.warmup_sec = 0.0;
  config.duration_sec = 300.0;
  config.seed = 5;
  config.metrics_enabled = true;
  experiment::Site site(config);
  const experiment::RunResult r = site.run();
  ASSERT_NE(r.metrics, nullptr);
  std::size_t queued = 0;
  for (int i = 0; i < site.cluster().size(); ++i) {
    const WebServer& server = site.cluster().server(i);
    const std::string prefix = "server." + std::to_string(i) + ".";
    EXPECT_DOUBLE_EQ(r.metrics->find(prefix + "queue_depth")->value,
                     static_cast<double>(server.queue_length()));
    EXPECT_EQ(r.metrics->find(prefix + "busy_sec")->value, server.closed_busy_time());
    EXPECT_LE(server.closed_busy_time(), server.cumulative_busy_time(site.simulator().now()));
    queued += server.queue_length();
  }
  EXPECT_GT(queued, 0u);  // some page was in service at the horizon
}

TEST_F(WebServerTest, CrashDropsQueueAndCountsLostWork) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  PageRecorder client;
  for (int i = 0; i < 4; ++i) s.submit_page(client.page(0, 10));
  simulator.run_until(0.001);  // first page in flight, three queued
  s.set_crashed(true);
  EXPECT_TRUE(s.crashed());
  EXPECT_EQ(client.failed.size(), 4u);  // every victim's client was told
  EXPECT_EQ(s.lost_pages(), 4u);
  EXPECT_EQ(s.lost_hits(), 40u);  // in-flight page counted at full burst
  EXPECT_EQ(s.queue_length(), 0u);
  simulator.run();
  EXPECT_EQ(s.pages_served(), 0u);  // the cancelled service never completed
  EXPECT_TRUE(client.done.empty());
}

TEST_F(WebServerTest, CrashedServerRejectsSubmissions) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.set_crashed(true);
  PageRecorder client;
  s.submit_page(client.page(0, 10, 3));
  EXPECT_EQ(client.failed, (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(s.rejected_pages(), 1u);
  EXPECT_EQ(s.queue_length(), 0u);
  // Rejected pages never enter demand accounting.
  EXPECT_EQ(s.lifetime_domain_hits()[0], 0u);
  // Recovery: the server accepts and serves again.
  s.set_crashed(false);
  s.submit_page(client.page(0, 10, 4));
  simulator.run();
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(s.pages_served(), 1u);
}

TEST_F(WebServerTest, CrashKeepsPartialBusyTimeOfCancelledService) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  s.submit_page(PageRequest{0, 50, nullptr});
  simulator.run_until(0.01);
  s.set_crashed(true);
  // The half-done service really consumed 0.01 s of server time.
  EXPECT_NEAR(s.cumulative_busy_time(simulator.now()), 0.01, 1e-9);
  simulator.run_until(5.0);
  EXPECT_NEAR(s.cumulative_busy_time(simulator.now()), 0.01, 1e-9);
}

TEST_F(WebServerTest, CrashIsIdempotentAndDistinctFromPause) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  for (int i = 0; i < 3; ++i) s.submit_page(PageRequest{0, 10, nullptr});
  s.set_paused(true);  // pause keeps the queue...
  EXPECT_EQ(s.queue_length(), 3u);
  s.set_crashed(true);  // ...crash destroys it
  s.set_crashed(true);  // idempotent: no double accounting
  EXPECT_EQ(s.lost_pages(), 3u);
  EXPECT_TRUE(s.paused());  // orthogonal flags: still paused after recovery
  s.set_crashed(false);
  EXPECT_TRUE(s.paused());
}

TEST_F(WebServerTest, CapacityFactorScalesNewServices) {
  WebServer s(simulator, 0, 50.0, 1, rng.split());
  EXPECT_THROW(s.set_capacity_factor(0.0), std::invalid_argument);
  EXPECT_THROW(s.set_capacity_factor(-0.5), std::invalid_argument);
  s.set_capacity_factor(0.5);
  EXPECT_DOUBLE_EQ(s.effective_capacity(), 25.0);
  // At half capacity the mean service of a 10-hit page doubles to 0.4 s.
  const int pages = 4000;
  int completed = 0;
  double submit_time = 0.0;
  sim::RunningStat durations;
  PageRecorder client;
  const auto submit = [&] {
    if (completed == pages) return;
    submit_time = simulator.now();
    s.submit_page(client.page(0, 10));
  };
  client.then_on_done = [&](std::uint32_t) {
    durations.add(simulator.now() - submit_time);
    ++completed;
    submit();
  };
  submit();
  simulator.run();
  EXPECT_NEAR(durations.mean(), 0.4, 0.02);
  s.set_capacity_factor(1.0);
  EXPECT_DOUBLE_EQ(s.effective_capacity(), 50.0);
}

TEST_F(WebServerTest, CompletionCallbackMaySubmitImmediately) {
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  int served = 0;
  PageRecorder client;
  // Resubmits from inside page_done: the server has already moved on.
  client.then_on_done = [&](std::uint32_t token) {
    if (++served < 10) s.submit_page(client.page(0, 5, token + 1));
  };
  s.submit_page(client.page(0, 5, 0));
  simulator.run();
  EXPECT_EQ(served, 10);
  EXPECT_EQ(s.pages_served(), 10u);
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(WebServer, CrashReportsEachVictimTokenOnceInQueueOrder) {
  sim::Simulator simulator;
  sim::RngStream rng(99);
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  PageRecorder a;
  PageRecorder b;
  s.submit_page(a.page(0, 10, 40));  // in service
  s.submit_page(b.page(0, 10, 41));
  s.submit_page(PageRequest{0, 10, nullptr, 42});  // nobody to tell
  s.submit_page(a.page(0, 10, 43));
  s.submit_page(b.page(0, 10, 44));
  s.submit_page(a.page(0, 10, 45));
  simulator.run_until(0.001);
  ASSERT_EQ(s.queue_length(), 6u);

  s.set_crashed(true);
  // The page in service first, then the queue front to back; each victim
  // once, to its own client.
  EXPECT_EQ(a.failed, (std::vector<std::uint32_t>{40, 43, 45}));
  EXPECT_EQ(b.failed, (std::vector<std::uint32_t>{41, 44}));
  EXPECT_EQ(s.lost_pages(), 6u);

  // Crashing again reports nobody twice, and no victim completes later.
  s.set_crashed(true);
  simulator.run();
  EXPECT_EQ(a.failed.size() + b.failed.size(), 5u);
  EXPECT_TRUE(a.done.empty());
  EXPECT_TRUE(b.done.empty());
}

TEST(WebServer, QueueKeepsOrderAcrossWrapAndGrowth) {
  // The waiting pages live in a ring that grows by doubling: serving a few
  // moves its head, so the queue that follows wraps around the first
  // buffer and is copied out of it in order when it grows past 16 and 32.
  sim::Simulator simulator;
  sim::RngStream rng(5);
  WebServer s(simulator, 0, 100.0, 1, rng.split());
  PageRecorder client;
  for (std::uint32_t t = 0; t < 10; ++t) s.submit_page(client.page(0, 5, t));
  simulator.run();  // head of the ring at 9
  ASSERT_EQ(client.done.size(), 10u);
  client.done.clear();
  s.set_paused(true);
  for (std::uint32_t t = 100; t < 140; ++t) s.submit_page(client.page(0, 5, t));
  EXPECT_EQ(s.queue_length(), 40u);
  s.set_paused(false);
  simulator.run_until(simulator.now() + 0.5);  // serve some of them
  const std::size_t served = client.done.size();
  ASSERT_GT(served, 0u);
  ASSERT_LT(served, 39u);
  s.set_crashed(true);
  std::vector<std::uint32_t> order = client.done;
  order.insert(order.end(), client.failed.begin(), client.failed.end());
  std::vector<std::uint32_t> want(40);
  std::iota(want.begin(), want.end(), 100u);
  EXPECT_EQ(order, want);  // served first come first served, the rest failed in order
}

TEST(WebServer, AttachedLogRingDrawsTheSameServiceTimes) {
  // A server that draws through a ring serves every page at the time the
  // server drawing from its own stream does, crash and degradation
  // included: the ring holds the stream's own logs.
  const auto completion_times = [](bool ring) {
    sim::Simulator simulator;
    sim::RngStream rng(31);
    WebServer s(simulator, 0, 40.0, 2, rng.split());
    sim::LogRings rings(1, 128);
    if (ring) s.attach_log_ring(rings[0]);
    PageRecorder client;
    std::vector<double> times;
    client.then_on_done = [&](std::uint32_t) { times.push_back(simulator.now()); };
    for (std::uint32_t t = 0; t < 300; ++t) {
      simulator.at(0.05 * t, [&s, &client, t] { s.submit_page(client.page(t % 2, 5 + t % 11, t)); });
    }
    simulator.at(3.0, [&s] { s.set_capacity_factor(0.5); });
    simulator.at(5.0, [&s] { s.set_crashed(true); });
    simulator.at(6.0, [&s] { s.set_crashed(false); });
    simulator.run();
    EXPECT_EQ(rings.loop_chunks() > 0, ring);
    return times;
  };
  const std::vector<double> own = completion_times(false);
  const std::vector<double> ringed = completion_times(true);
  ASSERT_GT(own.size(), 150u);
  EXPECT_EQ(own, ringed);
  sim::Simulator simulator;
  sim::RngStream rng(31);
  WebServer s(simulator, 0, 40.0, 2, rng.split());
  sim::LogRings rings(2, 128);
  s.attach_log_ring(rings[0]);
  EXPECT_THROW(s.attach_log_ring(rings[1]), std::logic_error);
}

}  // namespace
}  // namespace adattl::web
