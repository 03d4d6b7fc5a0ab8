#include "workload/client_pool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/policy_factory.h"
#include "dnscache/name_server.h"
#include "geo/geo_model.h"

namespace adattl::workload {
namespace {

/// A minimal self-contained world (2 fast homogeneous servers, RR DNS, one
/// name server for domain 0) so client behaviour can be observed without
/// queueing noise.
struct World {
  World() : rng(21), alarms(2, 0.9) {
    web::ClusterSpec spec;
    spec.relative = {1.0, 1.0};
    spec.total_capacity_hits_per_sec = 2000.0;
    cluster = std::make_unique<web::Cluster>(simulator, spec, 3, rng);

    core::SchedulerFactoryConfig fc;
    fc.capacities = cluster->capacities();
    fc.initial_weights = {3.0, 2.0, 1.0};
    fc.class_threshold = 0.25;
    bundle = core::make_scheduler("RR", fc, alarms, simulator, rng);
    ns = std::make_unique<dnscache::NameServer>(simulator, 0, *bundle.scheduler);
    dispatcher = std::make_unique<web::DirectDispatcher>(*cluster);
  }

  sim::Simulator simulator;
  sim::RngStream rng;
  core::AlarmRegistry alarms;
  std::unique_ptr<web::Cluster> cluster;
  core::SchedulerBundle bundle;
  std::unique_ptr<dnscache::NameServer> ns;
  std::unique_ptr<web::DirectDispatcher> dispatcher;
};

class ClientTest : public ::testing::Test {
 protected:
  World w;
  SessionProfile profile;
};

TEST_F(ClientTest, SessionProfileValidation) {
  SessionProfile p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_DOUBLE_EQ(p.mean_hits_per_page(), 10.0);
  p.mean_pages_per_session = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SessionProfile{};
  p.min_hits_per_page = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = SessionProfile{};
  p.max_hits_per_page = 3;  // below min
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST_F(ClientTest, ClientGeneratesSessionsAndPages) {
  ThinkTimeModel think({15.0, 15.0, 15.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 0.0);
  w.simulator.run_until(3600.0);
  const ClientPool::Totals t = pool.totals();
  EXPECT_GT(t.sessions, 5u);
  // Mean 20 pages/session at ~15 s per page: roughly 12 sessions/hour.
  EXPECT_GT(t.pages, 100u);
  EXPECT_NEAR(static_cast<double>(t.pages) / static_cast<double>(t.sessions), 20.0, 8.0);
}

TEST_F(ClientTest, OneAddressResolutionPerSession) {
  ThinkTimeModel think({15.0, 15.0, 15.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 0.0);
  w.simulator.run_until(3600.0);
  const std::uint64_t resolutions = w.ns->cache_hits() + w.ns->authoritative_queries();
  EXPECT_EQ(resolutions, pool.totals().sessions);
}

TEST_F(ClientTest, AllPagesLandOnTheClusterWithValidHitCounts) {
  ThinkTimeModel think({5.0, 5.0, 5.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 0.0);
  w.simulator.run_until(2000.0);
  std::uint64_t pages = 0, hits = 0;
  for (int s = 0; s < w.cluster->size(); ++s) {
    pages += w.cluster->server(s).pages_served();
    hits += w.cluster->server(s).hits_served();
  }
  EXPECT_GT(pages, 0u);
  // Uniform 5..15 hits per page: totals must lie inside those bounds.
  EXPECT_GE(hits, 5 * pages);
  EXPECT_LE(hits, 15 * pages);
  // Hit counters attribute everything to this client's domain (0).
  EXPECT_EQ(w.cluster->server(0).lifetime_domain_hits()[1], 0u);
  EXPECT_EQ(w.cluster->server(0).lifetime_domain_hits()[2], 0u);
}

TEST_F(ClientTest, ClientKeepsMappingForWholeSession) {
  // One client, think time long enough that the NS TTL (240 s) expires
  // mid-session; the session must keep hitting the same server anyway.
  SessionProfile long_session;
  long_session.mean_pages_per_session = 1000.0;  // effectively endless
  ThinkTimeModel think({50.0, 50.0, 50.0});
  ClientPool pool(w.simulator, *w.dispatcher, long_session, think);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 0.0);
  w.simulator.run_until(2000.0);  // far past the first TTL
  // All pages landed on one server: the other served nothing.
  const std::uint64_t s0 = w.cluster->server(0).pages_served();
  const std::uint64_t s1 = w.cluster->server(1).pages_served();
  EXPECT_GT(s0 + s1, 10u);
  EXPECT_TRUE(s0 == 0 || s1 == 0) << s0 << " vs " << s1;
}

TEST_F(ClientTest, ThinkTimePacesLoad) {
  ThinkTimeModel fast_think({1.0, 1.0, 1.0});
  ClientPool fast_pool(w.simulator, *w.dispatcher, profile, fast_think);
  const std::size_t fast = fast_pool.add(*w.ns, w.rng.split());
  fast_pool.start(fast, 0.0);
  w.simulator.run_until(1000.0);

  World slow_world;
  ThinkTimeModel slow_think({20.0, 20.0, 20.0});
  ClientPool slow_pool(slow_world.simulator, *slow_world.dispatcher, profile, slow_think);
  const std::size_t slow = slow_pool.add(*slow_world.ns, slow_world.rng.split());
  slow_pool.start(slow, 0.0);
  slow_world.simulator.run_until(1000.0);
  EXPECT_GT(fast_pool.totals().pages, 3 * slow_pool.totals().pages);
}

TEST_F(ClientTest, RejectsBadThinkTime) {
  EXPECT_THROW(ThinkTimeModel({0.0}), std::invalid_argument);
  // A resolver whose domain lies outside the think model is rejected too.
  ThinkTimeModel too_small({15.0});  // only domain 0... but ns serves domain 0
  dnscache::NameServer ns3(w.simulator, 2, *w.bundle.scheduler);
  ClientPool pool(w.simulator, *w.dispatcher, profile, too_small);
  EXPECT_THROW(pool.add(ns3, w.rng.split()), std::invalid_argument);
}

double empirical_hits_mean(const SessionProfile& p, int draws, std::uint64_t seed) {
  sim::RngStream rng(seed);
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    const int hits = p.sample_hits(rng);
    EXPECT_GE(hits, p.min_hits_per_page);
    EXPECT_LE(hits, p.max_hits_per_page);
    sum += static_cast<double>(hits);
  }
  return sum / static_cast<double>(draws);
}

TEST_F(ClientTest, ParetoHitsEmpiricalMeanMatchesAnalyticMean) {
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  for (double a : {1.5, 2.5}) {
    p.pareto_shape = a;
    const double analytic = p.mean_hits_per_page();
    const double empirical = empirical_hits_mean(p, 200000, 42);
    // sample_hits floors the continuous variate, so the empirical mean
    // sits up to ~0.5 below the continuous-model analytic mean.
    EXPECT_NEAR(empirical, analytic, 0.75) << "shape " << a;
    EXPECT_GT(analytic, static_cast<double>(p.min_hits_per_page));
    EXPECT_LT(analytic, static_cast<double>(p.max_hits_per_page) + 1.0);
  }
}

TEST_F(ClientTest, ParetoHitsShapeOneUsesLogFormAndStillMatches) {
  // a == 1 hits the removable singularity of the bounded-Pareto mean; the
  // closed form switches to L·H/(H−L)·ln(H/L) and must agree with draws.
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.pareto_shape = 1.0;
  const double analytic = p.mean_hits_per_page();
  EXPECT_TRUE(std::isfinite(analytic));
  const double empirical = empirical_hits_mean(p, 200000, 7);
  EXPECT_NEAR(empirical, analytic, 0.75);
}

TEST_F(ClientTest, ParetoMeanIsContinuousThroughShapeOne) {
  // The general-form mean must approach the log-form limit as a → 1, from
  // both sides — guards the 1/(a−1) factor against sign/cancellation slips.
  SessionProfile p;
  p.hits_distribution = HitsDistribution::kPareto;
  p.pareto_shape = 1.0;
  const double at_one = p.mean_hits_per_page();
  p.pareto_shape = 1.0 + 1e-6;
  EXPECT_NEAR(p.mean_hits_per_page(), at_one, 1e-3);
  p.pareto_shape = 1.0 - 1e-6;
  EXPECT_NEAR(p.mean_hits_per_page(), at_one, 1e-3);
  p.pareto_shape = 1.05;
  const double empirical = empirical_hits_mean(p, 200000, 11);
  EXPECT_NEAR(empirical, p.mean_hits_per_page(), 0.75);
}

TEST_F(ClientTest, NetworkTimeChargesReplyLegOnlyOnCompletion) {
  // Regression (PR 8): the pre-fix client charged the full round trip at
  // dispatch, so pages that never completed (crashed server, retried)
  // still accumulated the reply leg they never received. The fix charges
  // rtt/2 per dispatch and the remaining rtt/2 only in
  // on_server_complete().
  //
  // Timeline with rtt = 0.2, retry delay 1.0, server crashed until t = 2:
  //   t=0.0  dispatch #1 (+0.1) -> arrives 0.1, rejected, retry at 1.1
  //   t=1.1  dispatch #2 (+0.1) -> arrives 1.2, rejected, retry at 2.2
  //   t=2.2  dispatch #3 (+0.1) -> served; reply leg (+0.1) on completion
  // Correct total: 0.4 (three request legs + one reply leg).
  // Pre-fix total: 0.6 (three full round trips) — this test fails there.
  auto geo = std::make_shared<const geo::GeoModel>(
      geo::GeoModel::regions(3, 2, 1, 0.2, 0.5));  // 1 region: rtt = 0.2 always
  SessionProfile one_page;
  one_page.mean_pages_per_session = 1.0;  // geometric with mean 1: always 1 page
  ThinkTimeModel think({1e6, 1e6, 1e6});  // park the client after the page
  ClientPool pool(w.simulator, *w.dispatcher, one_page, think, geo.get(), 1.0);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  w.cluster->server(0).set_crashed(true);
  w.cluster->server(1).set_crashed(true);
  w.simulator.at(2.0, [this] {
    w.cluster->server(0).set_crashed(false);
    w.cluster->server(1).set_crashed(false);
  });
  pool.start(c, 0.0);
  w.simulator.run_until(100.0);

  const ClientPool::Totals t = pool.totals();
  EXPECT_EQ(t.pages, 1u);
  EXPECT_EQ(t.pages_failed, 2u);
  EXPECT_NEAR(t.network_time_sec, 0.4, 1e-12);
}

TEST_F(ClientTest, NetworkTimeIsOneRoundTripPerServedPage) {
  // Fault-free single-page session: exactly one request leg plus one
  // reply leg — one full round trip, nothing more.
  auto geo = std::make_shared<const geo::GeoModel>(
      geo::GeoModel::regions(3, 2, 1, 0.3, 0.5));
  SessionProfile one_page;
  one_page.mean_pages_per_session = 1.0;
  ThinkTimeModel think({1e6, 1e6, 1e6});
  ClientPool pool(w.simulator, *w.dispatcher, one_page, think, geo.get(), 1.0);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 0.0);
  w.simulator.run_until(100.0);
  const ClientPool::Totals t = pool.totals();
  EXPECT_EQ(t.pages, 1u);
  EXPECT_EQ(t.pages_failed, 0u);
  EXPECT_NEAR(t.network_time_sec, 0.3, 1e-12);
}

TEST_F(ClientTest, StartRejectsAnUnknownClient) {
  // An index past the pool would schedule a session that reads past the
  // records; start() refuses it, names it, and schedules nothing.
  ThinkTimeModel think({15.0, 15.0, 15.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  EXPECT_THROW(pool.start(0, 0.0), std::out_of_range);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  try {
    pool.start(c + 1, 0.0);
    FAIL() << "start() accepted client " << c + 1 << " of a one-client pool";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("client 1"), std::string::npos) << e.what();
  }
  EXPECT_EQ(w.simulator.pending(), 0u);
  pool.start(c, 0.0);
  EXPECT_EQ(w.simulator.pending(), 1u);
}

TEST_F(ClientTest, StartRejectsAClientAlreadyStarted) {
  // A client has one pending event or one page at a server. A second
  // start() would run a second session on the same record, overwriting
  // its page; it is refused, names the client, and schedules nothing.
  ThinkTimeModel think({15.0, 15.0, 15.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  pool.add(*w.ns, w.rng.split());
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 5.0);
  const auto expect_refused = [&] {
    const std::size_t pending = w.simulator.pending();
    try {
      pool.start(c, 0.0);
      ADD_FAILURE() << "start() accepted client " << c << " twice";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("client 1 "), std::string::npos) << e.what();
    }
    EXPECT_EQ(w.simulator.pending(), pending);
  };
  expect_refused();  // its first session is pending
  // At t = 5 the session resolves and its first page goes to a server, so
  // for a moment the client has no pending event of its own. Client 0 is
  // never started, so the pool's counts are client c's.
  w.simulator.run_until(5.0);
  ASSERT_EQ(pool.totals().sessions, 1u);
  expect_refused();
  w.simulator.run_until(1000.0);
  expect_refused();
  EXPECT_GT(pool.totals().pages, 1u);
  // The other client was never started, and still can be: its session
  // opens at once.
  const std::uint64_t sessions = pool.totals().sessions;
  pool.start(0, 0.0);
  w.simulator.run_until(1000.0);
  EXPECT_EQ(pool.totals().sessions, sessions + 1);
}

TEST_F(ClientTest, StartDelayDefersFirstSession) {
  ThinkTimeModel think({15.0, 15.0, 15.0});
  ClientPool pool(w.simulator, *w.dispatcher, profile, think);
  const std::size_t c = pool.add(*w.ns, w.rng.split());
  pool.start(c, 100.0);
  w.simulator.run_until(99.0);
  EXPECT_EQ(pool.totals().sessions, 0u);
  w.simulator.run_until(101.0);
  EXPECT_EQ(pool.totals().sessions, 1u);
}

}  // namespace
}  // namespace adattl::workload
