#include "workload/domain_set.h"

#include <gtest/gtest.h>

#include <numeric>

namespace adattl::workload {
namespace {

TEST(DomainSet, ZipfAllocationSumsToTotal) {
  const DomainSet ds = make_zipf_domains(20, 500, 15.0);
  EXPECT_EQ(ds.num_domains(), 20);
  EXPECT_EQ(ds.total_clients(), 500);
}

TEST(DomainSet, ZipfAllocationIsSkewedAndDecreasing) {
  const DomainSet ds = make_zipf_domains(20, 500, 15.0);
  for (int j = 1; j < 20; ++j) {
    EXPECT_GE(ds.clients[static_cast<std::size_t>(j - 1)],
              ds.clients[static_cast<std::size_t>(j)]);
  }
  // Pure Zipf over 20: rank 1 holds 1/H20 ~ 27.8% of clients.
  EXPECT_NEAR(ds.clients[0], 139, 2);
}

TEST(DomainSet, PaperSkewInvariant75PercentFrom10PercentHolds) {
  // The paper motivates Zipf with "75% of the client requests come from
  // only ~10-25% of the domains". With pure Zipf over 20 domains the top
  // 25% of domains (5) carry ~64% and the top 40% carry ~75%.
  const DomainSet ds = make_zipf_domains(20, 500, 15.0);
  const int top5 = std::accumulate(ds.clients.begin(), ds.clients.begin() + 5, 0);
  EXPECT_GT(top5, 300);  // > 60% of 500 from 25% of the domains
}

TEST(DomainSet, UniformAllocationIsFlat) {
  const DomainSet ds = make_uniform_domains(20, 500, 15.0);
  for (int c : ds.clients) EXPECT_EQ(c, 25);
}

TEST(DomainSet, TrueWeightsProportionalToClientsOverThink) {
  DomainSet ds;
  ds.clients = {10, 20};
  ds.mean_think_sec = {5.0, 20.0};
  const std::vector<double> w = ds.true_weights();
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
}

TEST(DomainSet, ValidationCatchesBadSets) {
  DomainSet ds;
  EXPECT_THROW(ds.validate(), std::invalid_argument);
  ds.clients = {5};
  ds.mean_think_sec = {};
  EXPECT_THROW(ds.validate(), std::invalid_argument);
  ds.mean_think_sec = {0.0};
  EXPECT_THROW(ds.validate(), std::invalid_argument);
  ds.mean_think_sec = {15.0};
  EXPECT_NO_THROW(ds.validate());
  ds.clients = {0};
  EXPECT_THROW(ds.validate(), std::invalid_argument);  // no clients at all
}

TEST(Perturbation, ZeroErrorIsNoop) {
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const DomainSet before = ds;
  apply_rate_perturbation(ds, 0.0);
  EXPECT_EQ(ds.mean_think_sec, before.mean_think_sec);
}

TEST(Perturbation, BusiestDomainGrowsByErrorPercent) {
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const std::vector<double> before = ds.true_weights();
  apply_rate_perturbation(ds, 30.0);
  const std::vector<double> after = ds.true_weights();
  EXPECT_NEAR(after[0] / before[0], 1.3, 1e-9);
}

TEST(Perturbation, TotalOfferedRatePreserved) {
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const std::vector<double> before = ds.true_weights();
  const double total_before = std::accumulate(before.begin(), before.end(), 0.0);
  apply_rate_perturbation(ds, 50.0);
  const std::vector<double> after = ds.true_weights();
  const double total_after = std::accumulate(after.begin(), after.end(), 0.0);
  EXPECT_NEAR(total_after, total_before, 1e-9);
}

TEST(Perturbation, OtherDomainsShrinkProportionally) {
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const std::vector<double> before = ds.true_weights();
  apply_rate_perturbation(ds, 20.0);
  const std::vector<double> after = ds.true_weights();
  const double ratio1 = after[1] / before[1];
  for (std::size_t j = 2; j < after.size(); ++j) {
    EXPECT_NEAR(after[j] / before[j], ratio1, 1e-9) << j;
  }
  EXPECT_LT(ratio1, 1.0);
}

TEST(Perturbation, ClientCountsUntouched) {
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const std::vector<int> before = ds.clients;
  apply_rate_perturbation(ds, 40.0);
  EXPECT_EQ(ds.clients, before);
}

TEST(Perturbation, SkewIncreases) {
  // The paper calls this a worst case precisely because skew grows.
  DomainSet ds = make_zipf_domains(10, 100, 15.0);
  const std::vector<double> before = ds.true_weights();
  const double skew_before = before[0] / std::accumulate(before.begin(), before.end(), 0.0);
  apply_rate_perturbation(ds, 50.0);
  const std::vector<double> after = ds.true_weights();
  const double skew_after = after[0] / std::accumulate(after.begin(), after.end(), 0.0);
  EXPECT_GT(skew_after, skew_before);
}

TEST(Perturbation, RejectsImpossibleErrors) {
  DomainSet ds = make_zipf_domains(2, 10, 15.0);
  EXPECT_THROW(apply_rate_perturbation(ds, -5.0), std::invalid_argument);
  // Growing the busiest domain beyond the whole total is impossible.
  EXPECT_THROW(apply_rate_perturbation(ds, 10000.0), std::invalid_argument);
  // The bound the registry validates --error against: 7 and 3 clients
  // allow up to 100 (10 / 7 - 1) = 42.9%, exclusive.
  const double bound = max_rate_perturbation_percent(ds);
  EXPECT_NEAR(bound, 100.0 * (10.0 / 7.0 - 1.0), 1e-9);
  DomainSet below = ds;
  EXPECT_NO_THROW(apply_rate_perturbation(below, bound - 1.0));
  EXPECT_THROW(apply_rate_perturbation(ds, bound), std::invalid_argument);
  DomainSet single;
  single.clients = {5};
  single.mean_think_sec = {15.0};
  EXPECT_THROW(apply_rate_perturbation(single, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace adattl::workload
