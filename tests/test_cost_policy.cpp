// The composite-objective family: COST(alpha) and COSTCAP(cap) selection
// behavior, their anti-herding pending charge, and the parsing/factory
// grammar that exposes them.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/alarm_registry.h"
#include "core/cost_policy.h"
#include "core/policy_factory.h"
#include "geo/geo_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace adattl::core {
namespace {

// 2 domains x 3 servers. Domain 0 is close to servers 0 and 1, far from 2;
// domain 1 is close only to server 2.
geo::GeoModel two_domain_geo() {
  return geo::GeoModel(std::vector<std::vector<double>>{
      {0.02, 0.02, 0.15},
      {0.15, 0.15, 0.02},
  });
}

struct ContextFixture {
  geo::GeoModel geo = two_domain_geo();
  std::vector<bool> eligible{true, true, true};
  std::vector<double> util{0.0, 0.0, 0.0};
  std::vector<std::size_t> queues{0, 0, 0};

  DecisionContext ctx(web::DomainId d, std::uint64_t generation = 0) const {
    DecisionContext c;
    c.domain = d;
    c.eligible = &eligible;
    c.utilization = &util;
    c.queue_depth = &queues;
    c.geo = &geo;
    c.pool_size = 3;
    c.feedback_generation = generation;
    return c;
  }
};

TEST(CompositeCostPolicy, AlphaZeroIsPureProximity) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 0.0);
  f.util = {0.0, 0.0, 0.9};          // ignored at alpha = 0
  EXPECT_EQ(p.select(f.ctx(1)), 2);  // domain 1's only close server
}

TEST(CompositeCostPolicy, AlphaOneIsPureLoad) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 1.0);
  f.util = {0.5, 0.4, 0.6};
  EXPECT_EQ(p.select(f.ctx(0)), 1);  // min utilization, RTT ignored
}

TEST(CompositeCostPolicy, TiesBreakTowardLowestIndex) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 1.0);
  // All-equal utilization: servers 0..2 tie on the load term.
  EXPECT_EQ(p.select(f.ctx(0)), 0);
}

TEST(CompositeCostPolicy, PendingChargeSpreadsAssignmentsWithinAGeneration) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 1.0);
  // Same generation throughout: every assignment charges the chosen
  // server, so repeated selects walk across the equal-load servers
  // instead of herding onto server 0.
  EXPECT_EQ(p.select(f.ctx(0, 7)), 0);
  EXPECT_EQ(p.select(f.ctx(0, 7)), 1);
  EXPECT_EQ(p.select(f.ctx(0, 7)), 2);
  EXPECT_EQ(p.select(f.ctx(0, 7)), 0);
}

TEST(CompositeCostPolicy, PendingResetsWhenFeedbackAdvances) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 1.0);
  EXPECT_EQ(p.select(f.ctx(0, 1)), 0);
  EXPECT_EQ(p.select(f.ctx(0, 1)), 1);
  // New feedback generation: pending counters are forgotten, selection
  // restarts from the fresh (all-equal) utilization view.
  EXPECT_EQ(p.select(f.ctx(0, 2)), 0);
}

TEST(CompositeCostPolicy, SmallServersChargeProportionallyMorePending) {
  ContextFixture f;
  // Server 0 has half the capacity, so one pending mapping on it costs
  // twice the pressure of one on server 1.
  CompositeCostPolicy p({50.0, 100.0, 100.0}, 1.0);
  f.util = {0.0, 0.0, 0.9};             // keep server 2 out of the race
  EXPECT_EQ(p.select(f.ctx(0, 3)), 0);  // all zero: lowest index
  EXPECT_EQ(p.select(f.ctx(0, 3)), 1);  // 0 now carries 2x pressure
  EXPECT_EQ(p.select(f.ctx(0, 3)), 1);  // 1 at 1x < 0 at 2x
  EXPECT_EQ(p.select(f.ctx(0, 3)), 0);  // 1 reached 2x; tie -> lowest
}

TEST(CompositeCostPolicy, IntermediateAlphaTradesLoadAgainstRtt) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 0.5);
  // Domain 1: server 2 is near (norm RTT 0.02/0.15) but heavily loaded;
  // server 0 is far (norm 1.0) but idle. At alpha = 0.5:
  //   cost_2 = 0.5*0.9 + 0.5*(0.02/0.15) = 0.517
  //   cost_0 = 0.5*0.0 + 0.5*1.0         = 0.5  -> far-but-idle wins
  f.util = {0.0, 0.3, 0.9};
  EXPECT_EQ(p.select(f.ctx(1)), 0);
  // Lighter overload flips it back to the near server:
  //   cost_2 = 0.5*0.6 + 0.0667 = 0.367 < 0.5
  CompositeCostPolicy q({100.0, 100.0, 100.0}, 0.5);
  f.util = {0.0, 0.3, 0.6};
  EXPECT_EQ(q.select(f.ctx(1)), 2);
}

TEST(CompositeCostPolicy, RespectsEligibility) {
  ContextFixture f;
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 0.0);
  f.eligible = {true, true, false};  // domain 1's nearest server barred
  EXPECT_EQ(p.select(f.ctx(1)), 0);  // equal-RTT far pair: lowest index
}

TEST(CompositeCostPolicy, ThrowsWithoutGeoContext) {
  CompositeCostPolicy p({100.0, 100.0, 100.0}, 0.5);
  const std::vector<bool> eligible{true, true, true};
  // The two-arg convenience overload builds a geo-less context.
  EXPECT_THROW(p.select(0, eligible), std::logic_error);
}

TEST(CompositeCostPolicy, NameAndSharesAndValidation) {
  CompositeCostPolicy p({50.0, 100.0, 50.0}, 0.7);
  EXPECT_DOUBLE_EQ(p.alpha(), 0.7);
  EXPECT_EQ(parse_policy_name("COST(0.7)").canonical_name(), "COST(0.7)");
  const std::vector<double> shares = p.stationary_shares();
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_DOUBLE_EQ(shares[0], 0.25);
  EXPECT_DOUBLE_EQ(shares[1], 0.5);
  EXPECT_THROW(CompositeCostPolicy({100.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(CompositeCostPolicy({100.0}, 1.1), std::invalid_argument);
  EXPECT_THROW(CompositeCostPolicy({0.0}, 0.5), std::invalid_argument);
}

TEST(LatencyCapPolicy, BalancesFreelyWithinTheCap) {
  ContextFixture f;
  LatencyCapPolicy p({100.0, 100.0, 100.0}, 0.05);
  // Domain 0: servers 0 and 1 are in cap (0.02 <= 0.05). Server 1 is
  // lighter, so it wins even though both beat server 2's RTT.
  f.util = {0.5, 0.2, 0.0};
  EXPECT_EQ(p.select(f.ctx(0)), 1);
}

TEST(LatencyCapPolicy, InCapBeatsOutOfCapRegardlessOfLoad) {
  ContextFixture f;
  LatencyCapPolicy p({100.0, 100.0, 100.0}, 0.05);
  // Domain 1: only server 2 is in cap; it wins despite being the most
  // loaded server on the floor.
  f.util = {0.0, 0.0, 0.95};
  EXPECT_EQ(p.select(f.ctx(1)), 2);
}

TEST(LatencyCapPolicy, WidensWhenNoInCapServerIsEligible) {
  ContextFixture f;
  LatencyCapPolicy p({100.0, 100.0, 100.0}, 0.05);
  f.eligible = {true, true, false};  // domain 1 loses its one in-cap server
  f.util = {0.4, 0.1, 0.0};
  EXPECT_EQ(p.select(f.ctx(1)), 1);  // out-of-cap tier: min load
}

TEST(LatencyCapPolicy, NameAndValidation) {
  LatencyCapPolicy p({100.0}, 0.08);
  EXPECT_DOUBLE_EQ(p.cap_sec(), 0.08);
  EXPECT_EQ(parse_policy_name("COSTCAP(0.08)").canonical_name(), "COSTCAP(0.08)");
  EXPECT_THROW(LatencyCapPolicy({100.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(LatencyCapPolicy({100.0}, -1.0), std::invalid_argument);
}

// ---- parsing grammar + factory wiring ----

TEST(CostPolicyParsing, DefaultsAndExplicitParameters) {
  PolicySpec cost = parse_policy_name("COST");
  EXPECT_EQ(cost.selection, SelectionKind::kCost);
  EXPECT_DOUBLE_EQ(cost.cost_alpha, 0.5);

  PolicySpec tuned = parse_policy_name("COST(0.7)");
  EXPECT_EQ(tuned.selection, SelectionKind::kCost);
  EXPECT_DOUBLE_EQ(tuned.cost_alpha, 0.7);

  PolicySpec cap = parse_policy_name("COSTCAP");
  EXPECT_EQ(cap.selection, SelectionKind::kCostCap);
  EXPECT_DOUBLE_EQ(cap.cost_cap_sec, 0.08);

  PolicySpec capped = parse_policy_name("COSTCAP(0.1)");
  EXPECT_DOUBLE_EQ(capped.cost_cap_sec, 0.1);

  // The COST family composes with the adaptive-TTL suffixes like any
  // other selection rule.
  PolicySpec combo = parse_policy_name("COST(0.7)-TTL/K");
  EXPECT_EQ(combo.selection, SelectionKind::kCost);
  EXPECT_DOUBLE_EQ(combo.cost_alpha, 0.7);
  EXPECT_NE(combo.ttl_classes, 0);
}

TEST(CostPolicyParsing, CanonicalNamesRoundTrip) {
  for (const char* name :
       {"COST(0.5)", "COST(0.7)", "COSTCAP(0.08)", "COSTCAP(0.1)-TTL/S_K"}) {
    EXPECT_EQ(parse_policy_name(name).canonical_name(), name) << name;
  }
}

TEST(CostPolicyParsing, RejectsMalformedParameters) {
  EXPECT_THROW(parse_policy_name("COST(1.5)"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("COST(-0.1)"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("COST(x)"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("COST(0.5"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("COSTCAP(0)"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("COSTCAP(-1)"), std::invalid_argument);
}

TEST(CostPolicyParsing, PolicyRequiresGeoCoversTheFamily) {
  EXPECT_TRUE(policy_requires_geo("GEO"));
  EXPECT_TRUE(policy_requires_geo("COST"));
  EXPECT_TRUE(policy_requires_geo("COST(0.3)-TTL/K"));
  EXPECT_TRUE(policy_requires_geo("COSTCAP(0.1)"));
  EXPECT_FALSE(policy_requires_geo("RR"));
  EXPECT_FALSE(policy_requires_geo("DRR2-TTL/S_K"));
  EXPECT_FALSE(policy_requires_geo("not-a-policy"));
}

TEST(CostPolicyFactory, RequiresAGeoModel) {
  sim::Simulator sim;
  sim::RngStream rng(1);
  AlarmRegistry alarms(3, 0.9);
  SchedulerFactoryConfig fc;
  fc.capacities = {100.0, 100.0, 100.0};
  fc.initial_weights = {1.0, 1.0};
  EXPECT_THROW(make_scheduler("COST", fc, alarms, sim, rng), std::invalid_argument);
  EXPECT_THROW(make_scheduler("COSTCAP", fc, alarms, sim, rng), std::invalid_argument);

  fc.geo = std::make_shared<const geo::GeoModel>(two_domain_geo());
  const SchedulerBundle cost = make_scheduler("COST(0.7)", fc, alarms, sim, rng);
  EXPECT_EQ(cost.scheduler->name(), "COST(0.7)");
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const CompositeCostPolicy&>(cost.scheduler->selection()).alpha(), 0.7);
  const SchedulerBundle cap = make_scheduler("COSTCAP(0.1)", fc, alarms, sim, rng);
  EXPECT_EQ(cap.scheduler->name(), "COSTCAP(0.1)");
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const LatencyCapPolicy&>(cap.scheduler->selection()).cap_sec(), 0.1);
}

}  // namespace
}  // namespace adattl::core
