#include "core/domain_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/random.h"

namespace adattl::core {
namespace {

std::vector<double> zipf_weights(int k) {
  return sim::ZipfDistribution(k, 1.0).probabilities();
}

TEST(DomainModel, RejectsBadConstruction) {
  EXPECT_THROW(DomainModel({}, 0.05), std::invalid_argument);
  EXPECT_THROW(DomainModel({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(DomainModel({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(DomainModel({1.0}, std::nan("")), std::invalid_argument);
  EXPECT_THROW(DomainModel({0.0, 0.0}, 0.5), std::invalid_argument);
  EXPECT_THROW(DomainModel({-1.0, 2.0}, 0.5), std::invalid_argument);
}

// γ = 1 is the default 1/K of a one-domain site: no share exceeds it, so
// no domain is hot. It used to be rejected, aborting every K = 1 run.
TEST(DomainModel, ThresholdOfOneMeansNoDomainIsHot) {
  const DomainModel single({3.0}, 1.0);
  EXPECT_FALSE(single.is_hot(0));
  EXPECT_EQ(single.partition(2), std::vector<int>{1});
  const DomainModel pair({9.0, 1.0}, 1.0);
  EXPECT_EQ(pair.hot_count(), 0);
}

TEST(DomainModel, SharesSumToOne) {
  DomainModel m(zipf_weights(20), 0.05);
  double sum = 0.0;
  for (int d = 0; d < 20; ++d) sum += m.share(d);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(DomainModel, InverseRelWeightIsRankForPureZipf) {
  DomainModel m(zipf_weights(20), 0.05);
  for (int d = 0; d < 20; ++d) {
    EXPECT_NEAR(m.inverse_rel_weight(d), static_cast<double>(d + 1), 1e-9);
  }
}

TEST(DomainModel, HotDomainsUnderPaperDefaults) {
  // Pure Zipf over 20 domains with gamma = 1/20: shares 1/(j*H20) > 0.05
  // exactly for ranks 1-5 (H20 ~ 3.5977).
  DomainModel m(zipf_weights(20), 1.0 / 20);
  EXPECT_EQ(m.hot_count(), 5);
  for (int d = 0; d < 5; ++d) EXPECT_TRUE(m.is_hot(d)) << d;
  for (int d = 5; d < 20; ++d) EXPECT_FALSE(m.is_hot(d)) << d;
}

TEST(DomainModel, PartitionOneClassIsAllZero) {
  DomainModel m(zipf_weights(10), 0.1);
  for (int c : m.partition(1)) EXPECT_EQ(c, 0);
}

TEST(DomainModel, PartitionTwoClassesMatchesHotFlag) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  const std::vector<int> cls = m.partition(2);
  for (int d = 0; d < 20; ++d) {
    EXPECT_EQ(cls[static_cast<std::size_t>(d)], m.is_hot(d) ? 0 : 1);
  }
}

TEST(DomainModel, PerDomainPartitionRanksByWeight) {
  DomainModel m(zipf_weights(8), 0.1);
  const std::vector<int> cls = m.partition(kPerDomainClasses);
  // Pure Zipf weights already sorted descending: class == index.
  for (int d = 0; d < 8; ++d) EXPECT_EQ(cls[static_cast<std::size_t>(d)], d);
}

TEST(DomainModel, PerDomainPartitionHandlesUnsortedWeights) {
  DomainModel m({2.0, 5.0, 1.0}, 0.2);
  const std::vector<int> cls = m.partition(kPerDomainClasses);
  EXPECT_EQ(cls, (std::vector<int>{1, 0, 2}));
}

TEST(DomainModel, PartitionAtLeastKClassesDegeneratesToPerDomain) {
  DomainModel m(zipf_weights(5), 0.1);
  EXPECT_EQ(m.partition(5), m.partition(kPerDomainClasses));
  EXPECT_EQ(m.partition(9), m.partition(kPerDomainClasses));
}

TEST(DomainModel, LogSpacedClassesAreMonotoneInWeight) {
  DomainModel m(zipf_weights(20), 0.05);
  const std::vector<int> cls = m.partition(4);
  // Heavier domain never lands in a colder class than a lighter one.
  for (int d = 1; d < 20; ++d) {
    EXPECT_LE(cls[static_cast<std::size_t>(d - 1)], cls[static_cast<std::size_t>(d)]);
  }
  // All classes within range.
  for (int c : cls) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 4);
  }
}

TEST(DomainModel, EqualWeightsCollapseToOneClass) {
  DomainModel m(std::vector<double>(6, 2.5), 0.05);
  for (int c : m.partition(3)) EXPECT_EQ(c, 0);
}

TEST(DomainModel, ClassMeanWeightsAreDecreasing) {
  DomainModel m(zipf_weights(20), 1.0 / 20);
  for (int classes : {2, 3, 4}) {
    const std::vector<double> means = m.class_mean_weights(classes);
    for (std::size_t c = 1; c < means.size(); ++c) {
      EXPECT_LE(means[c], means[c - 1]) << "classes=" << classes << " c=" << c;
    }
  }
}

TEST(DomainModel, ClassMeanWeightsTwoClassValues) {
  DomainModel m({4.0, 2.0, 1.0, 1.0}, 0.3);  // shares .5 .25 .125 .125: hot = {0}
  const std::vector<double> means = m.class_mean_weights(2);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 4.0);
  EXPECT_DOUBLE_EQ(means[1], 4.0 / 3.0);
}

TEST(DomainModel, UpdateWeightsNotifiesSubscribers) {
  DomainModel m(zipf_weights(5), 0.1);
  int notified = 0;
  m.subscribe([&] { ++notified; });
  m.update_weights({5, 4, 3, 2, 1});
  m.update_weights({1, 2, 3, 4, 5});
  EXPECT_EQ(notified, 2);
  EXPECT_DOUBLE_EQ(m.weight(0), 1.0);
}

TEST(DomainModel, UpdateWeightsRejectsSizeChange) {
  DomainModel m(zipf_weights(5), 0.1);
  EXPECT_THROW(m.update_weights({1.0, 2.0}), std::invalid_argument);
}

TEST(DomainModel, UpdateCanInvertHotSet) {
  DomainModel m({10.0, 1.0, 1.0, 1.0}, 0.3);
  EXPECT_TRUE(m.is_hot(0));
  EXPECT_FALSE(m.is_hot(3));
  m.update_weights({1.0, 1.0, 1.0, 10.0});
  EXPECT_FALSE(m.is_hot(0));
  EXPECT_TRUE(m.is_hot(3));
}

TEST(DomainModel, ZeroWeightDomainGetsLargestKnownFactor) {
  DomainModel m({8.0, 2.0, 0.0}, 0.2);
  // inverse_rel_weight of the zero-load domain clamps to max/min_positive.
  EXPECT_DOUBLE_EQ(m.inverse_rel_weight(2), 4.0);
}

}  // namespace
}  // namespace adattl::core
