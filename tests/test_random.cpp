#include "sim/random.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "sim/log_ring.h"

namespace adattl::sim {
namespace {

TEST(RngStream, DeterministicForFixedSeed) {
  RngStream a(123);
  RngStream b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, DifferentSeedsDiffer) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngStream, SplitChildrenAreIndependentAndDeterministic) {
  RngStream parent1(7);
  RngStream parent2(7);
  RngStream c1a = parent1.split();
  RngStream c1b = parent1.split();
  RngStream c2a = parent2.split();
  // Same parent, same split index -> same stream.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1a.next_u64(), c2a.next_u64());
  // Different split index -> different stream.
  RngStream c1a2 = RngStream(7).split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1b.next_u64() == c1a2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngStream, SplitDoesNotAdvanceParent) {
  RngStream a(99);
  RngStream b(99);
  (void)a.split();
  (void)a.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, NextDoubleInUnitInterval) {
  RngStream r(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngStream, UniformRespectsBounds) {
  RngStream r(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.5);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.5);
  }
  EXPECT_THROW(r.uniform(3.0, 2.0), std::invalid_argument);
}

TEST(RngStream, UniformIntCoversInclusiveRangeUniformly) {
  RngStream r(8);
  std::vector<int> counts(11, 0);  // values 5..15
  const int n = 110000;
  for (int i = 0; i < n; ++i) {
    const auto v = r.uniform_int(5, 15);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 15);
    counts[static_cast<std::size_t>(v - 5)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 11.0, 5.0 * std::sqrt(n / 11.0));
  }
}

TEST(RngStream, UniformIntSingleton) {
  RngStream r(9);
  EXPECT_EQ(r.uniform_int(3, 3), 3);
  EXPECT_THROW(r.uniform_int(4, 3), std::invalid_argument);
}

TEST(RngStream, ExponentialMeanMatches) {
  RngStream r(10);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(15.0);
  EXPECT_NEAR(sum / n, 15.0, 0.25);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(RngStream, ExponentialIsPositive) {
  RngStream r(11);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.exponential(1.0), 0.0);
}

TEST(RngStream, ErlangMeanAndVarianceMatch) {
  RngStream r(12);
  const int k = 10;
  const double mean_total = 2.0;
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.erlang(k, mean_total);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, mean_total, 0.02);
  // Var of Erlang(k) with mean m is m^2 / k.
  EXPECT_NEAR(var, mean_total * mean_total / k, 0.03);
  EXPECT_THROW(r.erlang(0, 1.0), std::invalid_argument);
}

TEST(RngStream, GeometricMin1MeanAndSupport) {
  RngStream r(13);
  const int n = 200000;
  long long sum = 0;
  for (int i = 0; i < n; ++i) {
    const int x = r.geometric_min1(20.0);
    ASSERT_GE(x, 1);
    sum += x;
  }
  EXPECT_NEAR(static_cast<double>(sum) / n, 20.0, 0.4);
  EXPECT_EQ(r.geometric_min1(1.0), 1);
  EXPECT_THROW(r.geometric_min1(0.5), std::invalid_argument);
}

TEST(RngStream, BernoulliFrequencyMatches) {
  RngStream r(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.35)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.35, 0.01);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Zipf, PmfIsNormalizedAndDecreasing) {
  ZipfDistribution z(20, 1.0);
  double sum = 0.0;
  for (int i = 1; i <= 20; ++i) {
    sum += z.pmf(i);
    if (i > 1) {
      EXPECT_LT(z.pmf(i), z.pmf(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, PureZipfRatioIsRank) {
  ZipfDistribution z(50, 1.0);
  for (int i = 2; i <= 50; i += 7) {
    EXPECT_NEAR(z.pmf(1) / z.pmf(i), static_cast<double>(i), 1e-9);
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfDistribution z(10, 0.0);
  for (int i = 1; i <= 10; ++i) EXPECT_NEAR(z.pmf(i), 0.1, 1e-12);
}

TEST(Zipf, SampleFrequenciesMatchPmf) {
  ZipfDistribution z(20, 1.0);
  RngStream r(15);
  std::vector<int> counts(20, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(z.sample(r) - 1)]++;
  for (int i = 1; i <= 20; ++i) {
    const double expect = n * z.pmf(i);
    EXPECT_NEAR(counts[static_cast<std::size_t>(i - 1)], expect, 5.0 * std::sqrt(expect) + 5);
  }
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfDistribution(0), std::invalid_argument);
}

TEST(Apportion, SumsExactlyToTotal) {
  ZipfDistribution z(20, 1.0);
  const std::vector<int> out = apportion_largest_remainder(500, z.probabilities());
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 500);
}

TEST(Apportion, ProportionsTrackWeights) {
  ZipfDistribution z(20, 1.0);
  const std::vector<int> out = apportion_largest_remainder(500, z.probabilities());
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(out[static_cast<std::size_t>(i)], 500.0 * z.pmf(i + 1), 1.0);
  }
  // Rank 1 of a 20-domain pure Zipf holds ~27.8% of the clients.
  EXPECT_GE(out[0], 135);
  EXPECT_LE(out[0], 143);
}

TEST(Apportion, UniformWeightsSplitEvenly) {
  const std::vector<int> out =
      apportion_largest_remainder(10, std::vector<double>(5, 1.0));
  for (int c : out) EXPECT_EQ(c, 2);
}

TEST(Apportion, RejectsDegenerateInput) {
  EXPECT_THROW(apportion_largest_remainder(10, {}), std::invalid_argument);
  EXPECT_THROW(apportion_largest_remainder(10, {0.0, 0.0}), std::invalid_argument);
}

// ---- LogRing: Rng::erlang's values, drawn ahead ----

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Fifteen rings, ring h-1 on the stream seeded 900 + h, and a copy of each
// stream to draw the same variates from directly.
struct StageRings {
  explicit StageRings(std::uint32_t capacity) : rings(15, capacity) {
    for (int h = 1; h <= 15; ++h) {
      rings[static_cast<std::size_t>(h - 1)].start(Rng(900 + h));
      reference.emplace_back(900 + h);
    }
  }
  LogRings rings;
  std::vector<Rng> reference;
};

// Draws `pages` Erlang variates of every stage count h = 1..15 through
// ring h-1 and from its reference stream, and counts the draws whose bits
// differ. The means vary as a server's effective capacity does.
int ring_mismatches(StageRings& s, int pages) {
  LogRings& rings = s.rings;
  std::vector<Rng>& reference = s.reference;
  int mismatches = 0;
  for (int p = 0; p < pages; ++p) {
    for (int h = 1; h <= 15; ++h) {
      const double mean = h / (37.5 + 11.0 * (p % 7));
      const double want = reference[static_cast<std::size_t>(h - 1)].erlang(h, mean);
      const double got = rings[static_cast<std::size_t>(h - 1)].erlang(h, mean);
      if (bits(got) != bits(want)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(LogRing, ErlangIsRngErlangBitForBitDrawnAlone) {
  // With no helper the consumer produces every chunk itself.
  StageRings s(256);
  const LogRings& rings = s.rings;
  EXPECT_EQ(ring_mismatches(s, 3000), 0);
  EXPECT_EQ(rings.helper_chunks(), 0u);
  // 3000 pages of h values from each ring, whole chunks.
  std::uint64_t values = 0;
  for (int h = 1; h <= 15; ++h) values += 3000u * static_cast<std::uint64_t>(h);
  EXPECT_GE(rings.loop_chunks() * LogRing::kChunk, values);
  EXPECT_LT(rings.loop_chunks() * LogRing::kChunk, values + 15 * LogRing::kChunk);
}

TEST(LogRing, ErlangIsRngErlangBitForBitWithAProducerThread) {
  // A helper fills the rings while the consumer draws; which side made a
  // chunk must not show in the values. The consumer pauses between rounds,
  // so the helper also parks and is woken. The helper yields to every
  // other thread, so on a loaded host the rounds go on until it has made
  // chunks (the consumer made fewer than it read), for at most 2 s.
  StageRings s(256);
  int mismatches = 0;
  std::uint64_t values = 0;
  const auto helped = [&] { return s.rings.loop_chunks() * LogRing::kChunk < values; };
  {
    LogRings::Helper helper(s.rings);
    for (int round = 0; round < 6 || (!helped() && round < 2000); ++round) {
      mismatches += ring_mismatches(s, 100);
      values += 100 * (15 * 16 / 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(helped());
  EXPECT_GT(s.rings.helper_chunks(), 0u);
}

TEST(LogRing, DrawLongerThanTheRingReadsAcrossRefills) {
  // 1000 stages from a 128-value ring: the draw consumes the ring in
  // pieces, producing chunks between them, and still sums in stream order.
  LogRings rings(1, 128);
  rings[0].start(Rng(77));
  Rng reference(77);
  for (int i = 0; i < 20; ++i) {
    const double mean = 1000.0 / (50.0 + i);
    EXPECT_EQ(bits(rings[0].erlang(1000, mean)), bits(reference.erlang(1000, mean)));
    EXPECT_EQ(bits(rings[0].erlang(3, 0.5)), bits(reference.erlang(3, 0.5)));
  }
}

TEST(LogRing, RejectsWhatRngErlangRejects) {
  LogRings rings(1, 128);
  rings[0].start(Rng(1));
  EXPECT_THROW(rings[0].erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rings[0].erlang(5, 0.0), std::invalid_argument);
  EXPECT_THROW(LogRings(1, 96), std::invalid_argument);   // not a power of two
  EXPECT_THROW(LogRings(1, 64), std::invalid_argument);   // one chunk
}

TEST(LogRing, HelperStopsAndJoinsWithNothingToDraw) {
  // Started and stopped with no consumer: it fills the rings, parks, and
  // its destructor wakes and joins it.
  LogRings rings(3, 128);
  for (std::size_t i = 0; i < 3; ++i) rings[i].start(Rng(i));
  {
    LogRings::Helper helper(rings);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(rings.helper_chunks(), 3u * 128 / LogRing::kChunk);
  EXPECT_EQ(rings.loop_chunks(), 0u);
}

}  // namespace
}  // namespace adattl::sim
