#include "core/policy_factory.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/ttl_policy.h"
#include "sim/random.h"

namespace adattl::core {
namespace {

class PolicyFactoryTest : public ::testing::Test {
 protected:
  PolicyFactoryTest() : rng(11), alarms(3, 0.9) {
    config.capacities = {100.0, 80.0, 50.0};
    config.initial_weights = sim::ZipfDistribution(20, 1.0).probabilities();
    config.class_threshold = 1.0 / 20;
  }

  sim::Simulator simulator;
  sim::RngStream rng;
  AlarmRegistry alarms;
  SchedulerFactoryConfig config;
};

TEST(ParsePolicyName, ConstantTtlFamilies) {
  EXPECT_EQ(parse_policy_name("RR").selection, SelectionKind::kRR);
  EXPECT_EQ(parse_policy_name("RR").ttl_classes, 0);
  EXPECT_EQ(parse_policy_name("RR").selection_tiers, 1);
  EXPECT_EQ(parse_policy_name("RR2").selection, SelectionKind::kRR);
  EXPECT_EQ(parse_policy_name("RR2").selection_tiers, 2);
  EXPECT_EQ(parse_policy_name("DAL").selection, SelectionKind::kDAL);
}

TEST(ParsePolicyName, ProbabilisticFamily) {
  const PolicySpec p = parse_policy_name("PRR2-TTL/K");
  EXPECT_EQ(p.selection, SelectionKind::kPRR);
  EXPECT_EQ(p.selection_tiers, 2);
  EXPECT_EQ(p.ttl_classes, kPerDomainClasses);
  EXPECT_FALSE(p.server_ttl_term);

  const PolicySpec q = parse_policy_name("PRR-TTL/2");
  EXPECT_EQ(q.selection, SelectionKind::kPRR);
  EXPECT_EQ(q.selection_tiers, 1);
  EXPECT_EQ(q.ttl_classes, 2);
}

TEST(ParsePolicyName, DeterministicFamily) {
  const PolicySpec p = parse_policy_name("DRR2-TTL/S_K");
  EXPECT_EQ(p.selection, SelectionKind::kRR);
  EXPECT_EQ(p.selection_tiers, 2);
  EXPECT_EQ(p.ttl_classes, kPerDomainClasses);
  EXPECT_TRUE(p.server_ttl_term);

  const PolicySpec q = parse_policy_name("DRR-TTL/S_1");
  EXPECT_EQ(q.selection, SelectionKind::kRR);
  EXPECT_EQ(q.selection_tiers, 1);
  EXPECT_EQ(q.ttl_classes, 1);
  EXPECT_TRUE(q.server_ttl_term);
}

TEST(ParsePolicyName, AblationCombinations) {
  EXPECT_EQ(parse_policy_name("RR2-TTL/3").ttl_classes, 3);
  EXPECT_EQ(parse_policy_name("PRR2-TTL/S_4").ttl_classes, 4);
  EXPECT_TRUE(parse_policy_name("PRR2-TTL/S_4").server_ttl_term);
}

TEST(ParsePolicyName, MultiTierExtension) {
  const PolicySpec rr3 = parse_policy_name("RR3");
  EXPECT_EQ(rr3.selection, SelectionKind::kRR);
  EXPECT_EQ(rr3.selection_tiers, 3);
  EXPECT_EQ(rr3.canonical_name(), "RR3");

  const PolicySpec rrk = parse_policy_name("RRK-TTL/K");
  EXPECT_EQ(rrk.selection, SelectionKind::kRR);
  EXPECT_EQ(rrk.selection_tiers, kPerDomainClasses);
  EXPECT_EQ(rrk.ttl_classes, kPerDomainClasses);
  EXPECT_EQ(rrk.canonical_name(), "RRK-TTL/K");

  EXPECT_THROW(parse_policy_name("RR1"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RR0"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RRx"), std::invalid_argument);
}

// The round-robin family is one rule with a tier count; its accepted
// spellings and their canonical forms are exactly the per-class ones.
TEST(ParsePolicyName, RoundRobinFamilySpellings) {
  const std::pair<const char*, const char*> accepted[] = {
      {"RR", "RR"},
      {"RR2", "RR2"},
      {"RR3", "RR3"},
      {"RR03", "RR3"},
      {"RR12", "RR12"},
      {"RRK", "RRK"},
      {"PRR", "PRR"},
      {"PRR2", "PRR2"},
      {"PRR-TTL/K", "PRR-TTL/K"},
      {"PRR2-TTL/S_2", "PRR2-TTL/S_2"},
      {"DRR-TTL/S_2", "DRR-TTL/S_2"},
      {"DRR2-TTL/S_K", "DRR2-TTL/S_K"},
      {"RR-TTL/S_1", "DRR-TTL/S_1"},
      {"RR2-TTL/S_K", "DRR2-TTL/S_K"},
      {"RR3-TTL/S_K", "RR3-TTL/S_K"},
      {"RRK-TTL/S_2", "RRK-TTL/S_2"},
      {"RR4-TTL/2", "RR4-TTL/2"},
  };
  for (const auto& [name, canonical] : accepted) {
    EXPECT_EQ(parse_policy_name(name).canonical_name(), canonical) << name;
  }
  for (const char* name : {"RR02", "RR-1", "RRk", "PRR3", "PRRK", "PRR02", "DRR3-TTL/S_K",
                           "DRRK-TTL/S_K", "DRR", "DRR2", "DRR2-TTL/2", "RRR", "PR", "D"}) {
    EXPECT_THROW(parse_policy_name(name), std::invalid_argument) << name;
  }
}

// A tier count beyond int used to escape as std::out_of_range ("stoi"),
// which the policy knob's check does not catch.
TEST(ParsePolicyName, TierCountOverflowIsRejectedNamingTheToken) {
  try {
    parse_policy_name("RR99999999999-TTL/K");
    FAIL() << "accepted an out-of-range tier count";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'RR99999999999'"), std::string::npos) << e.what();
  }
}

TEST(ParsePolicyName, RoundTripsThroughCanonicalName) {
  for (const std::string& name : paper_policy_names()) {
    EXPECT_EQ(parse_policy_name(name).canonical_name(), name) << name;
  }
}

TEST(ParsePolicyName, RejectsMalformedNames) {
  EXPECT_THROW(parse_policy_name(""), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("FOO"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RR-TTL/"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RR-TTL/0"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RR-TTL/xyz"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("RR-TTL/2K"), std::invalid_argument);
  // DRR without a server-aware TTL policy is not a paper algorithm.
  EXPECT_THROW(parse_policy_name("DRR"), std::invalid_argument);
  EXPECT_THROW(parse_policy_name("DRR2-TTL/K"), std::invalid_argument);
}

TEST(PaperPolicyNames, CountsAndUniqueness) {
  const std::vector<std::string> names = paper_policy_names();
  EXPECT_EQ(names.size(), 15u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) EXPECT_NE(names[i], names[j]);
  }
}

TEST_F(PolicyFactoryTest, BuildsEveryPaperPolicy) {
  for (const std::string& name : paper_policy_names()) {
    SchedulerBundle b = make_scheduler(name, config, alarms, simulator, rng);
    ASSERT_NE(b.scheduler, nullptr) << name;
    ASSERT_NE(b.domains, nullptr) << name;
    EXPECT_EQ(b.scheduler->name(), name);
    // Every scheduler must produce a valid decision immediately.
    const Decision d = b.scheduler->schedule(0);
    EXPECT_GE(d.server, 0);
    EXPECT_LT(d.server, 3);
    EXPECT_GT(d.ttl_sec, 0.0);
  }
}

TEST_F(PolicyFactoryTest, BuildsMultiTierExtensions) {
  for (const char* name : {"RR3", "RRK", "RR4-TTL/K", "RRK-TTL/S_K"}) {
    SchedulerBundle b = make_scheduler(name, config, alarms, simulator, rng);
    EXPECT_EQ(b.scheduler->name(), name);
    const Decision d = b.scheduler->schedule(0);
    EXPECT_GE(d.server, 0);
    EXPECT_GT(d.ttl_sec, 0.0);
  }
}

TEST_F(PolicyFactoryTest, ConstantPoliciesUseReferenceTtl) {
  SchedulerBundle b = make_scheduler("RR", config, alarms, simulator, rng);
  for (int d = 0; d < 20; ++d) {
    EXPECT_DOUBLE_EQ(b.scheduler->schedule(d).ttl_sec, 240.0);
  }
}

TEST_F(PolicyFactoryTest, AdaptivePolicyRecalibratesViaModelSubscription) {
  SchedulerBundle b = make_scheduler("PRR-TTL/K", config, alarms, simulator, rng);
  const double before = b.scheduler->schedule(19).ttl_sec;  // coldest domain
  // Make domain 19 the hottest: its TTL must drop to the minimum.
  std::vector<double> w(20, 1.0);
  w[19] = 100.0;
  b.domains->update_weights(w);
  const double after = b.scheduler->schedule(19).ttl_sec;
  EXPECT_LT(after, before);
}

TEST_F(PolicyFactoryTest, SchedulerCountsDecisionsAndAssignments) {
  SchedulerBundle b = make_scheduler("RR", config, alarms, simulator, rng);
  for (int i = 0; i < 9; ++i) b.scheduler->schedule(i % 20);
  EXPECT_EQ(b.scheduler->decisions(), 9u);
  std::uint64_t total = 0;
  for (std::uint64_t a : b.scheduler->assignments()) total += a;
  EXPECT_EQ(total, 9u);
  // Plain RR spreads 9 decisions as 3/3/3.
  for (std::uint64_t a : b.scheduler->assignments()) EXPECT_EQ(a, 3u);
}

TEST_F(PolicyFactoryTest, AlarmedServerReceivesNoNewMappings) {
  SchedulerBundle b = make_scheduler("RR", config, alarms, simulator, rng);
  alarms.observe(8.0, {0.5, 0.95, 0.5});  // server 1 alarmed
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(b.scheduler->schedule(i % 20).server, 1);
  }
}

TEST_F(PolicyFactoryTest, TtlStatTracksDecisions) {
  SchedulerBundle b = make_scheduler("PRR-TTL/K", config, alarms, simulator, rng);
  for (int d = 0; d < 20; ++d) b.scheduler->schedule(d);
  EXPECT_EQ(b.scheduler->ttl_stat().count(), 20u);
  EXPECT_GT(b.scheduler->ttl_stat().max(), b.scheduler->ttl_stat().min());
}

TEST_F(PolicyFactoryTest, RejectsEmptyConfig) {
  SchedulerFactoryConfig bad = config;
  bad.capacities.clear();
  EXPECT_THROW(make_scheduler("RR", bad, alarms, simulator, rng), std::invalid_argument);
  bad = config;
  bad.initial_weights.clear();
  EXPECT_THROW(make_scheduler("RR", bad, alarms, simulator, rng), std::invalid_argument);
}

}  // namespace
}  // namespace adattl::core
