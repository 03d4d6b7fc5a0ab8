#include "core/selection_policies.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/policy_factory.h"

namespace adattl::core {
namespace {

std::vector<bool> all_eligible(int n) { return std::vector<bool>(static_cast<std::size_t>(n), true); }

/// `k` domains of equal weight; γ = 1 makes none of them hot.
DomainModel equal_domains(int k) {
  return DomainModel(std::vector<double>(static_cast<std::size_t>(k), 1.0), 1.0);
}

/// The deterministic family (α ≡ 1) over `n` servers and `tiers` classes.
RoundRobinPolicy deterministic(int n, DomainModel& domains, int tiers) {
  return RoundRobinPolicy(std::vector<double>(static_cast<std::size_t>(n), 1.0), domains, tiers,
                          sim::RngStream(0));
}

TEST(RoundRobin, CyclesThroughAllServers) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy rr = deterministic(4, domains, 1);
  const auto e = all_eligible(4);
  std::vector<int> got;
  for (int i = 0; i < 8; ++i) got.push_back(rr.select(0, e));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(RoundRobin, SkipsIneligibleServers) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy rr = deterministic(4, domains, 1);
  std::vector<bool> e{true, false, true, false};
  std::vector<int> got;
  for (int i = 0; i < 4; ++i) got.push_back(rr.select(0, e));
  EXPECT_EQ(got, (std::vector<int>{0, 2, 0, 2}));
}

TEST(RoundRobin, ResumesCycleAfterRecovery) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy rr = deterministic(3, domains, 1);
  std::vector<bool> e{true, false, true};
  EXPECT_EQ(rr.select(0, e), 0);
  EXPECT_EQ(rr.select(0, e), 2);
  e[1] = true;  // server 1 recovers
  EXPECT_EQ(rr.select(0, e), 0);
  EXPECT_EQ(rr.select(0, e), 1);
}

TEST(RoundRobin, IgnoresDomain) {
  DomainModel domains({8.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 2.0}, 0.3);
  RoundRobinPolicy rr = deterministic(3, domains, 1);
  const auto e = all_eligible(3);
  EXPECT_EQ(rr.select(7, e), 0);
  EXPECT_EQ(rr.select(0, e), 1);
  EXPECT_EQ(rr.select(3, e), 2);
}

TEST(RoundRobin, UniformStationaryShares) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy rr = deterministic(5, domains, 1);
  for (double s : rr.stationary_shares()) EXPECT_DOUBLE_EQ(s, 0.2);
}

TEST(TwoTierRoundRobin, HotAndNormalUseIndependentPointers) {
  // Domain 0 hot (share 0.7), domains 1..3 normal.
  DomainModel domains({7.0, 1.0, 1.0, 1.0}, 0.25);
  RoundRobinPolicy rr2 = deterministic(4, domains, 2);
  const auto e = all_eligible(4);
  EXPECT_EQ(rr2.select(0, e), 0);  // hot pointer
  EXPECT_EQ(rr2.select(0, e), 1);
  EXPECT_EQ(rr2.select(1, e), 0);  // normal pointer starts fresh
  EXPECT_EQ(rr2.select(2, e), 1);
  EXPECT_EQ(rr2.select(0, e), 2);  // hot pointer resumes where it left off
}

TEST(TwoTierRoundRobin, TracksHotSetChanges) {
  DomainModel domains({7.0, 1.0, 1.0, 1.0}, 0.25);
  RoundRobinPolicy rr2 = deterministic(4, domains, 2);
  const auto e = all_eligible(4);
  EXPECT_EQ(rr2.select(0, e), 0);  // domain 0 currently hot
  domains.update_weights({1.0, 7.0, 1.0, 1.0});
  EXPECT_EQ(rr2.select(1, e), 1);  // domain 1 now hot, continues hot pointer
  EXPECT_EQ(rr2.select(0, e), 0);  // domain 0 now normal, normal pointer fresh
}

TEST(TwoTierRoundRobin, EmptiedClassKeepsItsPointer) {
  DomainModel domains({7.0, 1.0, 1.0, 1.0}, 0.25);
  RoundRobinPolicy rr2 = deterministic(4, domains, 2);
  const auto e = all_eligible(4);
  EXPECT_EQ(rr2.select(0, e), 0);  // hot pointer at 0
  EXPECT_EQ(rr2.select(0, e), 1);  // hot pointer at 1
  domains.update_weights({1.0, 1.0, 1.0, 1.0});  // the hot class empties
  EXPECT_EQ(rr2.select(0, e), 0);  // normal pointer, fresh
  domains.update_weights({1.0, 1.0, 7.0, 1.0});  // domain 2 turns hot
  EXPECT_EQ(rr2.select(2, e), 2);  // the hot pointer resumes after 1
}

TEST(MultiTierRoundRobin, EachTierHasOwnPointer) {
  // Weights 8/4/1/1 with 3 log-spaced tiers: domain 0 -> tier 0,
  // domain 1 -> tier 1, domains 2,3 -> tier 2.
  DomainModel domains({8.0, 4.0, 1.0, 1.0}, 0.3);
  RoundRobinPolicy rr3 = deterministic(4, domains, 3);
  const auto e = all_eligible(4);
  EXPECT_EQ(rr3.select(0, e), 0);  // tier 0
  EXPECT_EQ(rr3.select(1, e), 0);  // tier 1, fresh pointer
  EXPECT_EQ(rr3.select(2, e), 0);  // tier 2, fresh pointer
  EXPECT_EQ(rr3.select(0, e), 1);  // tier 0 continues
  EXPECT_EQ(rr3.select(3, e), 1);  // tier 2 continues (domain 3 shares it)
}

TEST(MultiTierRoundRobin, PerDomainTiersGiveEveryDomainAPointer) {
  DomainModel domains({4.0, 2.0, 1.0}, 0.3);
  RoundRobinPolicy rrk = deterministic(3, domains, kPerDomainClasses);
  const auto e = all_eligible(3);
  EXPECT_EQ(rrk.select(0, e), 0);
  EXPECT_EQ(rrk.select(1, e), 0);
  EXPECT_EQ(rrk.select(2, e), 0);
  EXPECT_EQ(rrk.select(0, e), 1);
  EXPECT_EQ(parse_policy_name("RRK").canonical_name(), "RRK");
}

TEST(MultiTierRoundRobin, PerDomainTiersReRankOnWeightUpdate) {
  DomainModel domains({4.0, 2.0, 1.0}, 0.3);
  RoundRobinPolicy rrk = deterministic(3, domains, kPerDomainClasses);
  const auto e = all_eligible(3);
  EXPECT_EQ(rrk.select(0, e), 0);  // rank 0's pointer at 0
  EXPECT_EQ(rrk.select(0, e), 1);  // rank 0's pointer at 1
  domains.update_weights({1.0, 2.0, 4.0});
  EXPECT_EQ(rrk.select(2, e), 2);  // domain 2 now holds rank 0's pointer
  EXPECT_EQ(rrk.select(0, e), 0);  // domain 0 takes rank 2's fresh pointer
}

TEST(MultiTierRoundRobin, OneTierDegeneratesToPlainRR) {
  // One tier is plain RR: every domain shares one pointer.
  DomainModel domains({4.0, 2.0, 1.0}, 0.3);
  RoundRobinPolicy rr1 = deterministic(3, domains, 1);
  const auto e = all_eligible(3);
  std::vector<int> got;
  for (int i = 0; i < 6; ++i) got.push_back(rr1.select(i % 3, e));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(MultiTierRoundRobin, SkipsIneligibleAndNames) {
  DomainModel domains({4.0, 2.0, 1.0}, 0.3);
  RoundRobinPolicy rr3 = deterministic(3, domains, 3);
  std::vector<bool> e{false, true, true};
  for (int i = 0; i < 20; ++i) EXPECT_NE(rr3.select(i % 3, e), 0);
  EXPECT_EQ(parse_policy_name("RR3").canonical_name(), "RR3");
  EXPECT_THROW(RoundRobinPolicy({}, domains, 3, sim::RngStream(0)), std::invalid_argument);
  EXPECT_THROW(deterministic(3, domains, 0), std::invalid_argument);
}

TEST(ProbabilisticRoundRobin, FullCapacityServersNeverSkipped) {
  // All alphas 1.0 -> behaves exactly like RR.
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy prr({1.0, 1.0, 1.0}, domains, 1, sim::RngStream(1));
  const auto e = all_eligible(3);
  std::vector<int> got;
  for (int i = 0; i < 6; ++i) got.push_back(prr.select(0, e));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(ProbabilisticRoundRobin, LongRunSharesProportionalToCapacity) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy prr({1.0, 0.5, 0.25}, domains, 1, sim::RngStream(2));
  const auto e = all_eligible(3);
  std::vector<int> counts(3, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(prr.select(0, e))]++;
  const double total = 1.0 + 0.5 + 0.25;
  for (int s = 0; s < 3; ++s) {
    const double expect = n * (s == 0 ? 1.0 : s == 1 ? 0.5 : 0.25) / total;
    EXPECT_NEAR(counts[static_cast<std::size_t>(s)], expect, 0.03 * n) << s;
  }
}

TEST(ProbabilisticRoundRobin, StationarySharesMatchAlphas) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy prr({1.0, 0.5, 0.5}, domains, 1, sim::RngStream(3));
  const std::vector<double> s = prr.stationary_shares();
  EXPECT_NEAR(s[0], 0.5, 1e-12);
  EXPECT_NEAR(s[1], 0.25, 1e-12);
  EXPECT_NEAR(s[2], 0.25, 1e-12);
}

TEST(ProbabilisticRoundRobin, NeverReturnsIneligibleServer) {
  DomainModel domains = equal_domains(1);
  RoundRobinPolicy prr({1.0, 0.1, 0.1, 0.1}, domains, 1, sim::RngStream(4));
  std::vector<bool> e{false, true, true, false};
  for (int i = 0; i < 1000; ++i) {
    const int s = prr.select(0, e);
    EXPECT_TRUE(s == 1 || s == 2) << s;
  }
}

TEST(ProbabilisticRoundRobin, RejectsBadAlphas) {
  DomainModel domains = equal_domains(1);
  EXPECT_THROW(RoundRobinPolicy({}, domains, 1, sim::RngStream(5)), std::invalid_argument);
  EXPECT_THROW(RoundRobinPolicy({1.0, 0.0}, domains, 1, sim::RngStream(5)),
               std::invalid_argument);
  EXPECT_THROW(RoundRobinPolicy({1.0, 1.5}, domains, 1, sim::RngStream(5)),
               std::invalid_argument);
}

TEST(WeightedRoundRobin, ExactSharesOverOneCycle) {
  // Weights 3:2:1 -> over any 6 consecutive picks, counts are 3/2/1.
  WeightedRoundRobinPolicy wrr({3.0, 2.0, 1.0});
  const auto e = all_eligible(3);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 60; ++i) counts[static_cast<std::size_t>(wrr.select(0, e))]++;
  EXPECT_EQ(counts, (std::vector<int>{30, 20, 10}));
}

TEST(WeightedRoundRobin, SmoothInterleaving) {
  // Smooth WRR spreads the heavy server's turns inside the cycle instead
  // of bursting them: weights 2:1:1 yield the period-4 sequence 0,1,2,0
  // (compare naive WRR's 0,0,1,2).
  WeightedRoundRobinPolicy wrr({2.0, 1.0, 1.0});
  const auto e = all_eligible(3);
  std::vector<int> got;
  for (int i = 0; i < 12; ++i) got.push_back(wrr.select(0, e));
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 0, 0, 1, 2, 0, 0, 1, 2, 0}));
}

TEST(WeightedRoundRobin, SkipsIneligible) {
  WeightedRoundRobinPolicy wrr({3.0, 2.0, 1.0});
  std::vector<bool> e{false, true, true};
  for (int i = 0; i < 20; ++i) EXPECT_NE(wrr.select(0, e), 0);
}

TEST(WeightedRoundRobin, EqualWeightsDegenerateToRR) {
  WeightedRoundRobinPolicy wrr({1.0, 1.0, 1.0});
  const auto e = all_eligible(3);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9; ++i) counts[static_cast<std::size_t>(wrr.select(0, e))]++;
  EXPECT_EQ(counts, (std::vector<int>{3, 3, 3}));
}

TEST(WeightedRoundRobin, SharesAndValidation) {
  WeightedRoundRobinPolicy wrr({4.0, 1.0});
  EXPECT_DOUBLE_EQ(wrr.stationary_shares()[0], 0.8);
  EXPECT_THROW(WeightedRoundRobinPolicy({}), std::invalid_argument);
  EXPECT_THROW(WeightedRoundRobinPolicy({1.0, 0.0}), std::invalid_argument);
}

TEST(ProbabilisticTwoTier, SharesStillCapacityProportional) {
  DomainModel domains({5.0, 1.0, 1.0}, 0.4);
  RoundRobinPolicy prr2({1.0, 0.5, 0.5}, domains, 2, sim::RngStream(6));
  const auto e = all_eligible(3);
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<std::size_t>(prr2.select(i % 3, e))]++;
  }
  EXPECT_NEAR(counts[0], n * 0.5, 0.03 * n);
  EXPECT_NEAR(counts[1], n * 0.25, 0.03 * n);
  EXPECT_NEAR(counts[2], n * 0.25, 0.03 * n);
}

TEST(ProbabilisticTwoTier, HotAndNormalPointersAreSeparate) {
  DomainModel domains({5.0, 1.0, 1.0}, 0.4);
  // Alphas of 1.0 make the walk deterministic so pointer separation shows.
  RoundRobinPolicy prr2({1.0, 1.0, 1.0}, domains, 2, sim::RngStream(7));
  const auto e = all_eligible(3);
  EXPECT_EQ(prr2.select(0, e), 0);  // hot
  EXPECT_EQ(prr2.select(1, e), 0);  // normal (own pointer)
  EXPECT_EQ(prr2.select(0, e), 1);  // hot continues
  EXPECT_EQ(prr2.select(2, e), 1);  // normal continues
}

}  // namespace
}  // namespace adattl::core
