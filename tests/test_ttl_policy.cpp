#include "core/ttl_policy.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/policy_factory.h"
#include "sim/random.h"

namespace adattl::core {
namespace {

std::vector<double> zipf_weights(int k) {
  return sim::ZipfDistribution(k, 1.0).probabilities();
}

std::vector<double> uniform_shares(std::size_t n) {
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

TEST(ConstantTtl, AlwaysReturnsValue) {
  ConstantTtlPolicy p(240.0);
  EXPECT_DOUBLE_EQ(p.ttl(0, 0), 240.0);
  EXPECT_DOUBLE_EQ(p.ttl(19, 6), 240.0);
  EXPECT_THROW(ConstantTtlPolicy(0.0), std::invalid_argument);
}

TEST(AdaptiveTtl, PerDomainTtlScalesWithInverseWeight) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  AdaptiveTtlPolicy p(m, std::vector<double>(7, 70.0), kPerDomainClasses,
                      /*server_term=*/false, uniform_shares(7));
  // Pure Zipf: TTL_j = base * j.
  for (int d = 0; d < 20; ++d) {
    EXPECT_NEAR(p.ttl(d, 0), p.base() * (d + 1), 1e-9) << d;
  }
  // TTL is independent of the server for the probabilistic family.
  EXPECT_DOUBLE_EQ(p.ttl(3, 0), p.ttl(3, 6));
}

TEST(AdaptiveTtl, CalibrationMatchesConstantTtlAddressRate) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  const double reference = 240.0;
  const double target_rate = 20.0 / reference;
  for (int classes : {1, 2, 3, kPerDomainClasses}) {
    for (bool server_term : {false, true}) {
      AdaptiveTtlPolicy p(m, {100.0, 80.0, 60.0}, classes, server_term,
                          uniform_shares(3), reference);
      EXPECT_NEAR(p.expected_address_rate(), target_rate, 1e-9)
          << "classes=" << classes << " server_term=" << server_term;
    }
  }
}

TEST(AdaptiveTtl, RejectsNonPositiveCapacities) {
  DomainModel m(zipf_weights(5), 0.2);
  // A zero capacity would silently poison the capacity-share terms
  // (division by sum, per-server ratios) instead of failing loudly.
  EXPECT_THROW(
      AdaptiveTtlPolicy(m, {100.0, 0.0, 60.0}, 2, false, uniform_shares(3)),
      std::invalid_argument);
  EXPECT_THROW(
      AdaptiveTtlPolicy(m, {100.0, -5.0, 60.0}, 2, true, uniform_shares(3)),
      std::invalid_argument);
  EXPECT_NO_THROW(
      AdaptiveTtlPolicy(m, {100.0, 80.0, 60.0}, 2, false, uniform_shares(3)));
}

TEST(AdaptiveTtl, SingleClassNoServerTermDegeneratesToConstant) {
  DomainModel m(zipf_weights(10), 0.1);
  AdaptiveTtlPolicy p(m, {100.0, 50.0}, 1, false, uniform_shares(2), 240.0);
  EXPECT_NEAR(p.ttl(0, 0), 240.0, 1e-9);
  EXPECT_NEAR(p.ttl(9, 1), 240.0, 1e-9);
}

TEST(AdaptiveTtl, ServerTermScalesWithCapacityRatio) {
  DomainModel m(zipf_weights(5), 0.2);
  AdaptiveTtlPolicy p(m, {100.0, 80.0, 50.0}, 1, /*server_term=*/true,
                      uniform_shares(3));
  // TTL_i / TTL_N = C_i / C_N.
  EXPECT_NEAR(p.ttl(0, 0) / p.ttl(0, 2), 2.0, 1e-9);
  EXPECT_NEAR(p.ttl(0, 1) / p.ttl(0, 2), 1.6, 1e-9);
}

TEST(AdaptiveTtl, MinTtlIsHottestDomainOnWeakestServer) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  AdaptiveTtlPolicy p(m, {100.0, 50.0}, kPerDomainClasses, true, uniform_shares(2));
  double observed_min = 1e18;
  for (int d = 0; d < 20; ++d) {
    for (int s = 0; s < 2; ++s) observed_min = std::min(observed_min, p.ttl(d, s));
  }
  EXPECT_NEAR(observed_min, p.min_ttl(), 1e-9);
  EXPECT_NEAR(observed_min, p.ttl(0, 1), 1e-9);  // rank-1 domain, weakest server
}

TEST(AdaptiveTtl, TwoClassPolicyUsesTwoDistinctTtls) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  AdaptiveTtlPolicy p(m, std::vector<double>(7, 70.0), 2, false, uniform_shares(7));
  // Hot domains (0-4) share one TTL; normal (5-19) share a longer one.
  const double hot = p.ttl(0, 0);
  const double normal = p.ttl(10, 0);
  EXPECT_GT(normal, hot);
  for (int d = 0; d < 5; ++d) EXPECT_DOUBLE_EQ(p.ttl(d, 0), hot);
  for (int d = 5; d < 20; ++d) EXPECT_DOUBLE_EQ(p.ttl(d, 0), normal);
}

TEST(AdaptiveTtl, HotterDomainsNeverGetLongerTtl) {
  DomainModel m(zipf_weights(30), 1.0 / 30);
  for (int classes : {2, 4, kPerDomainClasses}) {
    AdaptiveTtlPolicy p(m, {100.0, 60.0}, classes, true, uniform_shares(2));
    for (int d = 1; d < 30; ++d) {
      EXPECT_LE(p.ttl(d - 1, 0), p.ttl(d, 0) + 1e-9) << "classes=" << classes << " d=" << d;
    }
  }
}

TEST(AdaptiveTtl, RecalibratesOnWeightChange) {
  DomainModel m({8.0, 1.0, 1.0}, 0.3);
  AdaptiveTtlPolicy p(m, {100.0}, kPerDomainClasses, false, {1.0});
  m.subscribe([&p] { p.recalibrate(); });
  const double before = p.ttl(2, 0);
  m.update_weights({1.0, 1.0, 8.0});  // domain 2 becomes the hot one
  const double after = p.ttl(2, 0);
  EXPECT_GT(before, after);  // was cold (long TTL), now hottest (short TTL)
  EXPECT_NEAR(p.expected_address_rate(), 3.0 / 240.0, 1e-9);  // still calibrated
}

TEST(AdaptiveTtl, CalibrationOffUsesReferenceAsBase) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  AdaptiveTtlPolicy p(m, {100.0, 50.0}, kPerDomainClasses, false, uniform_shares(2),
                      240.0, /*calibrate=*/false);
  EXPECT_DOUBLE_EQ(p.base(), 240.0);
  EXPECT_DOUBLE_EQ(p.ttl(0, 0), 240.0);
}

// A TTL policy has no name of its own: the algorithm's one spelling,
// PolicySpec::canonical_name, carries its TTL/i or TTL/S_i suffix (K for
// one class per domain, none for the constant TTL).
TEST(AdaptiveTtl, NamesFollowPaperConvention) {
  DomainModel m(zipf_weights(5), 0.2);
  const std::vector<double> cap{100.0, 50.0};
  const std::tuple<int, bool, const char*> cases[] = {
      {1, false, "PRR-TTL/1"},  {2, false, "PRR-TTL/2"},  {kPerDomainClasses, false, "PRR-TTL/K"},
      {1, true, "PRR-TTL/S_1"}, {2, true, "PRR-TTL/S_2"}, {kPerDomainClasses, true, "PRR-TTL/S_K"},
  };
  for (const auto& [classes, server_term, name] : cases) {
    const AdaptiveTtlPolicy p(m, cap, classes, server_term, uniform_shares(2));
    PolicySpec spec;
    spec.selection = SelectionKind::kPRR;
    spec.ttl_classes = p.num_classes();
    spec.server_ttl_term = p.has_server_term();
    EXPECT_EQ(spec.canonical_name(), name);
    EXPECT_EQ(parse_policy_name(name).ttl_classes, classes) << name;
    EXPECT_EQ(parse_policy_name(name).server_ttl_term, server_term) << name;
  }
  EXPECT_EQ(parse_policy_name("PRR").canonical_name(), "PRR");
  EXPECT_EQ(parse_policy_name("PRR").ttl_classes, 0);
}

TEST(AdaptiveTtl, CapacityWeightedSharesShiftCalibration) {
  DomainModel m(zipf_weights(10), 0.1);
  // PRR shares lean toward the big server, whose TTL factor is larger, so
  // the calibrated base must shrink relative to uniform shares.
  AdaptiveTtlPolicy uniform(m, {100.0, 25.0}, kPerDomainClasses, true, uniform_shares(2));
  AdaptiveTtlPolicy weighted(m, {100.0, 25.0}, kPerDomainClasses, true, {0.8, 0.2});
  EXPECT_LT(weighted.base(), uniform.base());
  EXPECT_NEAR(weighted.expected_address_rate(), 10.0 / 240.0, 1e-9);
}

TEST(AdaptiveTtl, RejectsBadArguments) {
  DomainModel m(zipf_weights(5), 0.2);
  EXPECT_THROW(AdaptiveTtlPolicy(m, {}, 1, false, {}), std::invalid_argument);
  EXPECT_THROW(AdaptiveTtlPolicy(m, {100.0}, 1, false, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(AdaptiveTtlPolicy(m, {100.0}, 0, false, {1.0}), std::invalid_argument);
  EXPECT_THROW(AdaptiveTtlPolicy(m, {100.0}, 1, false, {1.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace adattl::core
