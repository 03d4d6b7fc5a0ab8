// Server-side redirection (second-level dispatching) suite.
#include "web/dispatcher.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "experiment/cli.h"
#include "experiment/site.h"
#include "page_recorder.h"
#include "sim/random.h"

namespace adattl {
namespace {

struct Rig {
  Rig() : rng(7), cluster(simulator, spec(), 2, rng) {}

  static web::ClusterSpec spec() {
    web::ClusterSpec s;
    s.relative = {1.0, 1.0, 0.5};
    s.total_capacity_hits_per_sec = 250.0;  // capacities 100/100/50
    return s;
  }

  sim::Simulator simulator;
  sim::RngStream rng;
  web::Cluster cluster;
};

TEST(DirectDispatcher, DeliversToTheNamedServer) {
  Rig rig;
  web::DirectDispatcher d(rig.cluster);
  d.dispatch(2, web::PageRequest{0, 10, nullptr});
  EXPECT_EQ(rig.cluster.server(2).queue_length(), 1u);
  EXPECT_EQ(rig.cluster.server(0).queue_length(), 0u);
}

TEST(RedirectingDispatcher, PassesThroughWhenBacklogSmall) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 2.0, 0.1, 10.0);
  d.dispatch(0, web::PageRequest{0, 10, nullptr});
  EXPECT_EQ(rig.cluster.server(0).queue_length(), 1u);
  EXPECT_EQ(d.redirects(), 0u);
  EXPECT_EQ(d.direct_deliveries(), 1u);
}

TEST(RedirectingDispatcher, BacklogEstimateTracksQueue) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 2.0, 0.1, 10.0);
  EXPECT_DOUBLE_EQ(d.backlog_sec(0), 0.0);
  for (int i = 0; i < 10; ++i) rig.cluster.server(0).submit_page({0, 10, nullptr});
  // 10 pages x 10 hits / 100 hits/s = 1 s of work.
  EXPECT_DOUBLE_EQ(d.backlog_sec(0), 1.0);
  // The same backlog on the half-capacity server is twice the wait.
  for (int i = 0; i < 10; ++i) rig.cluster.server(2).submit_page({0, 10, nullptr});
  EXPECT_DOUBLE_EQ(d.backlog_sec(2), 2.0);
}

TEST(RedirectingDispatcher, OverloadedTargetRedirectsToLeastLoaded) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 1.0, 0.1, 10.0);
  for (int i = 0; i < 15; ++i) rig.cluster.server(0).submit_page({0, 10, nullptr});  // 1.5 s
  d.dispatch(0, web::PageRequest{0, 10, nullptr});
  EXPECT_EQ(d.redirects(), 1u);
  // The page is in flight for redirect_delay, then lands on server 1 or 2
  // (both empty) and may even complete service by the probe time.
  rig.simulator.run_until(0.2);
  const std::uint64_t landed = rig.cluster.server(1).hits_served() +
                               rig.cluster.server(2).hits_served() +
                               rig.cluster.server(1).queue_length() +
                               rig.cluster.server(2).queue_length();
  EXPECT_GE(landed, 1u);
  // Nothing extra reached the overloaded server.
  EXPECT_EQ(rig.cluster.server(0).lifetime_domain_hits()[0], 150u);
}

TEST(RedirectingDispatcher, NoPingPongWhenEveryoneIsLoaded) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 0.5, 0.0, 10.0);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 20; ++i) rig.cluster.server(s).submit_page({0, 10, nullptr});
  }
  // Every server exceeds the threshold: one redirect to the argmin, which
  // queues it regardless (never a second hop).
  d.dispatch(0, web::PageRequest{0, 10, nullptr});
  rig.simulator.run_until(0.001);
  EXPECT_LE(d.redirects(), 1u);
  std::size_t total = 0;
  for (int s = 0; s < 3; ++s) total += rig.cluster.server(s).queue_length();
  EXPECT_GE(total, 58u);  // nothing got lost (some service may have started)
}

TEST(RedirectingDispatcher, ParkedPagesReachTheServerChosenAtDispatch) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 0.5, 0.1, 10.0);
  for (int i = 0; i < 10; ++i) rig.cluster.server(0).submit_page({0, 10, nullptr});  // 1 s
  // Servers 1 and 2 are both idle: the tie goes to server 1.
  web::PageRecorder client;
  d.dispatch(0, client.page(1, 10, 1));
  // Now server 1 is the busier one, so the next redirect picks server 2,
  // while the first page is still parked.
  rig.simulator.run_until(0.05);
  for (int i = 0; i < 20; ++i) rig.cluster.server(1).submit_page({0, 10, nullptr});  // 2 s
  d.dispatch(0, web::PageRequest{1, 5, nullptr});
  EXPECT_EQ(d.redirects(), 2u);
  EXPECT_EQ(rig.cluster.server(1).lifetime_domain_hits()[1], 0u);
  EXPECT_EQ(rig.cluster.server(2).lifetime_domain_hits()[1], 0u);

  rig.simulator.run_until(0.2);
  EXPECT_EQ(rig.cluster.server(1).lifetime_domain_hits()[1], 10u);
  EXPECT_EQ(rig.cluster.server(2).lifetime_domain_hits()[1], 5u);
  // The page carried its client through the wait.
  rig.simulator.run_until(10.0);
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{1}));
}

TEST(RedirectingDispatcher, RedirectedPageKeepsItsToken) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 0.5, 0.1, 10.0);
  for (int i = 0; i < 10; ++i) rig.cluster.server(0).submit_page({0, 10, nullptr});  // 1 s
  web::PageRecorder client;
  // Three pages parked at once: one for a live server, two for a server
  // that crashes while they are in flight.
  d.dispatch(0, client.page(1, 10, 7001));  // parked for server 1
  for (int i = 0; i < 20; ++i) rig.cluster.server(1).submit_page({0, 10, nullptr});  // 2 s
  d.dispatch(0, client.page(1, 5, 7002));  // parked for server 2
  d.dispatch(0, client.page(1, 5, 7003));  // parked for server 2 as well
  EXPECT_EQ(d.redirects(), 3u);
  rig.cluster.server(2).set_crashed(true);
  EXPECT_TRUE(client.done.empty());
  EXPECT_TRUE(client.failed.empty());

  // Delivery: server 2 rejects both of its pages, in parking order, each
  // with the token it was dispatched with.
  rig.simulator.run_until(0.2);
  EXPECT_EQ(client.failed, (std::vector<std::uint32_t>{7002, 7003}));
  EXPECT_EQ(rig.cluster.server(1).lifetime_domain_hits()[1], 10u);
  rig.simulator.run_until(10.0);
  EXPECT_EQ(client.done, (std::vector<std::uint32_t>{7001}));
  EXPECT_EQ(client.failed.size(), 2u);
}

TEST(RedirectingDispatcher, TargetAlreadyLeastLoadedIsNotRedirected) {
  Rig rig;
  web::RedirectingDispatcher d(rig.simulator, rig.cluster, 0.1, 0.0, 10.0);
  // Load servers 1 and 2 more than 0; target 0 is over threshold but still
  // the least loaded -> no redirect.
  for (int i = 0; i < 3; ++i) rig.cluster.server(0).submit_page({0, 10, nullptr});
  for (int i = 0; i < 9; ++i) rig.cluster.server(1).submit_page({0, 10, nullptr});
  for (int i = 0; i < 9; ++i) rig.cluster.server(2).submit_page({0, 10, nullptr});
  d.dispatch(0, web::PageRequest{0, 10, nullptr});
  EXPECT_EQ(d.redirects(), 0u);
  EXPECT_EQ(rig.cluster.server(0).queue_length(), 4u);
}

TEST(RedirectingDispatcher, Validation) {
  Rig rig;
  EXPECT_THROW(web::RedirectingDispatcher(rig.simulator, rig.cluster, 0.0, 0.1, 10.0),
               std::invalid_argument);
  EXPECT_THROW(web::RedirectingDispatcher(rig.simulator, rig.cluster, 1.0, -0.1, 10.0),
               std::invalid_argument);
  EXPECT_THROW(web::RedirectingDispatcher(rig.simulator, rig.cluster, 1.0, 0.1, 0.0),
               std::invalid_argument);
}

TEST(RedirectionIntegration, RedirectionRescuesRoundRobin) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(50);
  cfg.policy = "RR";
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 2400.0;
  cfg.seed = 61;
  const experiment::RunResult plain = experiment::Site(cfg).run();
  cfg.redirect_enabled = true;
  const experiment::RunResult redirected = experiment::Site(cfg).run();
  // Second-level dispatching caps the queues the DNS cannot see, so the
  // *client experience* improves sharply. (Max utilization does NOT: the
  // workload is closed-loop, and rescuing the clients RR trapped behind a
  // hot queue lets them generate more load, keeping every server busier —
  // the redirection ablation quantifies this deliberately.)
  EXPECT_LT(redirected.mean_page_response_sec, 0.6 * plain.mean_page_response_sec);
  EXPECT_LT(redirected.response_p99_sec, plain.response_p99_sec);
  EXPECT_GT(redirected.redirected_pages, 0u);
  EXPECT_GT(redirected.redirected_fraction, 0.0);
  EXPECT_LT(redirected.redirected_fraction, 0.5);
  EXPECT_EQ(plain.redirected_pages, 0u);
}

TEST(RedirectionIntegration, AdaptiveTtlNeedsFewRedirects) {
  experiment::SimulationConfig cfg;
  cfg.cluster = web::table2_cluster(50);
  cfg.warmup_sec = 200.0;
  cfg.duration_sec = 2400.0;
  cfg.seed = 62;
  cfg.redirect_enabled = true;
  cfg.policy = "RR";
  const experiment::RunResult rr = experiment::Site(cfg).run();
  cfg.policy = "DRR2-TTL/S_K";
  const experiment::RunResult adaptive = experiment::Site(cfg).run();
  // Good first-level scheduling leaves much less for the second level.
  EXPECT_LT(adaptive.redirected_fraction, 0.5 * rr.redirected_fraction);
}

TEST(RedirectionCli, ParsesFlags) {
  const experiment::CliOptions opt =
      experiment::parse_cli({"--redirect-wait=1.5", "--redirect-delay=0.05"});
  EXPECT_TRUE(opt.config.redirect_enabled);
  EXPECT_DOUBLE_EQ(opt.config.redirect_max_wait_sec, 1.5);
  EXPECT_DOUBLE_EQ(opt.config.redirect_delay_sec, 0.05);
  EXPECT_TRUE(experiment::parse_cli({"--redirect"}).config.redirect_enabled);
  EXPECT_FALSE(experiment::parse_cli({}).config.redirect_enabled);
}

}  // namespace
}  // namespace adattl
