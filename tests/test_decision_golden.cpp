// Golden equivalence: the DecisionContext refactor must not change a
// single scheduling decision. The digests below were captured from the
// pre-refactor tree (every policy still took (domain, eligible) directly)
// over a full serial run AND a domain-sharded run per policy; the digest
// folds every deterministic RunResult aggregate plus — serially — the
// scheduler's per-server assignment counters, so any divergence in any
// decision, event ordering or RNG consumption shows up.
//
// If a digest here ever needs to change, the change is by definition a
// behavioral change to the simulation — justify it in the commit message
// and re-capture, never "fix the test" silently.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "experiment/config.h"
#include "experiment/sharded_site.h"
#include "experiment/site.h"

namespace adattl {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_d(std::uint64_t h, double d) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(d));
}

// Short heterogeneous-geo run: big enough that every policy exercises its
// full decision loop (alarms fire, TTL adaptation runs, geo RTT charged),
// small enough that ten policies x two modes stay in test-suite budget.
experiment::SimulationConfig base_config(const std::string& policy) {
  experiment::SimulationConfig c;
  c.policy = policy;
  c.num_domains = 20;
  c.total_clients = 200;
  c.warmup_sec = 60.0;
  c.duration_sec = 600.0;
  c.seed = 4242;
  c.geo_regions = 3;
  return c;
}

std::uint64_t digest_result(const experiment::RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a(h, r.total_pages);
  h = fnv1a(h, r.total_hits);
  h = fnv1a(h, r.authoritative_queries);
  h = fnv1a(h, r.events_dispatched);
  h = fnv1a(h, r.alarm_signals);
  h = fnv1a_d(h, r.mean_max_utilization);
  h = fnv1a_d(h, r.mean_page_response_sec);
  h = fnv1a_d(h, r.mean_ttl);
  h = fnv1a_d(h, r.mean_network_rtt_sec);
  h = fnv1a_d(h, r.aggregate_utilization);
  for (double u : r.mean_server_util) h = fnv1a_d(h, u);
  return h;
}

std::uint64_t serial_digest(const std::string& policy) {
  experiment::Site site(base_config(policy));
  const experiment::RunResult r = site.run();
  std::uint64_t h = digest_result(r);
  for (std::uint64_t a : site.scheduler().assignments()) h = fnv1a(h, a);
  return h;
}

std::uint64_t sharded_digest(const std::string& policy) {
  experiment::SimulationConfig c = base_config(policy);
  c.shard_domains = true;
  c.shard_count = 3;
  experiment::ShardedSite site(c);
  return digest_result(site.run());
}

// A policy name as a gtest parameter name: punctuation becomes '_'.
std::string test_name(const std::string& policy) {
  std::string name = policy;
  for (char& ch : name) {
    if (ch == '-' || ch == '/' || ch == '(' || ch == ')' || ch == '.') ch = '_';
  }
  return name;
}

// A row names its policy by index, not by a string pointer, for the reason
// given at MeasuredGolden below. The index is 64 bits wide, so a row has no
// padding and gtest prints the same 24 bytes for it in every build.
enum GoldenPolicy : std::uint64_t {
  kRR, kRR2, kRR3, kWRR, kPrrTtl2, kPrr2TtlK, kDal, kMrl, kDrr2TtlSK, kGeoTtlK
};
constexpr const char* kGoldenPolicyNames[] = {
    "RR",  "RR2", "RR3",          "WRR",      "PRR-TTL/2", "PRR2-TTL/K",
    "DAL", "MRL", "DRR2-TTL/S_K", "GEO-TTL/K"};

struct Golden {
  GoldenPolicy policy_id;
  std::uint64_t serial;
  std::uint64_t sharded;
  const char* policy() const { return kGoldenPolicyNames[policy_id]; }
};

// Serial digests captured 2026-08-08 from commit c88e709 (pre-DecisionContext
// main) with the harness mirrored above. Sharded digests re-captured once
// when ShardedSite's domain layout changed from round-robin (`d % S`) to
// the largest-first partition by offered load: each shard now owns other
// domains, so its RNG split draws a different (equally valid) workload.
// Serial runs are untouched by that change and keep their digests. Sharded
// digests moved once more when events_dispatched came to count the monitor
// ticks in every mode, as a serial run always had: each is the previous
// digest with events_dispatched + 82 (660 s / 8 s).
constexpr Golden kGolden[] = {
    {kRR, 0x94d275d762874389ULL, 0x38c2a9f31b0e3bc7ULL},
    {kRR2, 0x112ea85c011b9504ULL, 0x155d2bac34e0f4daULL},
    {kRR3, 0x7833fe211573b952ULL, 0x2d22d6e657634d7fULL},
    {kWRR, 0x0c2b9a25e91a178aULL, 0xc3213fdd551b5b99ULL},
    {kPrrTtl2, 0xa1ea8e1e0a010e8fULL, 0x5024bc4445337bbaULL},
    {kPrr2TtlK, 0xf94596fc079a6605ULL, 0x36b2f34148e76c20ULL},
    {kDal, 0x58a8b14ad58803eeULL, 0x71abd598bf90fea2ULL},
    {kMrl, 0x854accd64fd2e01fULL, 0xe12166ec2a1f7bd3ULL},
    {kDrr2TtlSK, 0x403c52815996a3f1ULL, 0x671e924f4be4b628ULL},
    {kGeoTtlK, 0x314ea3d84ce4c846ULL, 0x4bddf0da2bbdef1eULL},
};

class DecisionGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DecisionGolden, SerialRunIsBitIdenticalToPreRefactorMain) {
  const Golden& g = GetParam();
  EXPECT_EQ(serial_digest(g.policy()), g.serial) << "policy " << g.policy();
}

TEST_P(DecisionGolden, ShardedRunIsBitIdenticalToPreRefactorMain) {
  const Golden& g = GetParam();
  EXPECT_EQ(sharded_digest(g.policy()), g.sharded) << "policy " << g.policy();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DecisionGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return test_name(info.param.policy());
                         });

// ---- Measured weights ----
//
// The rows above run on oracle weights, so a domain's class and TTL factor
// never change mid-run. These rows run the online estimator instead: the
// weights move every collection window, so hot/normal classes flip, RRK
// re-ranks its domains and the TTL policy recalibrates while decisions are
// being made. Their digest extends digest_result with the whole
// max-utilization CDF (every percent and seven quantiles), each scheduler's
// assignment counters and the final model weights of every slice.
// Captured 2026-10-17 from commit 587e8e9; the sharded column moved as the
// one above did, by events_dispatched + 82.

// The row holds no pointer: gtest prints a parameter without a PrintTo as
// its raw bytes, gtest_discover_tests puts that text into every ctest
// name, and a pointer's bytes are an address that ASLR moves on every
// run, so the names would change from one build to the next.
struct MeasuredGolden {
  char policy[16];
  experiment::EstimatorKind estimator;
  bool cold_start;
  std::uint64_t serial;
  std::uint64_t sharded;
};

experiment::SimulationConfig measured_config(const MeasuredGolden& g) {
  experiment::SimulationConfig c = base_config(g.policy);
  c.oracle_weights = false;
  c.estimator_kind = g.estimator;
  c.estimator_cold_start = g.cold_start;
  return c;
}

std::uint64_t digest_measured(const experiment::RunResult& r) {
  std::uint64_t h = digest_result(r);
  h = fnv1a(h, r.max_util_cdf.count());
  for (int i = 0; i <= 100; ++i) h = fnv1a_d(h, r.max_util_cdf.prob_below(i / 100.0));
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    h = fnv1a_d(h, r.max_util_cdf.quantile(p));
  }
  return h;
}

std::uint64_t digest_slice(std::uint64_t h, const experiment::SiteSlice& slice) {
  for (std::uint64_t a : slice.bundle.scheduler->assignments()) h = fnv1a(h, a);
  for (double w : slice.bundle.domains->weights()) h = fnv1a_d(h, w);
  return h;
}

std::uint64_t measured_serial_digest(const MeasuredGolden& g) {
  experiment::Site site(measured_config(g));
  const experiment::RunResult r = site.run();
  return digest_slice(digest_measured(r), site.slices()[0]);
}

std::uint64_t measured_sharded_digest(const MeasuredGolden& g) {
  experiment::SimulationConfig c = measured_config(g);
  c.shard_domains = true;
  c.shard_count = 3;
  experiment::ShardedSite site(c);
  std::uint64_t h = digest_measured(site.run());
  for (int s = 0; s < site.shard_count(); ++s) h = digest_slice(h, site.shard(s));
  return h;
}

constexpr auto kEwma = experiment::EstimatorKind::kEwma;
constexpr auto kHolt = experiment::EstimatorKind::kHoltWinters;

constexpr MeasuredGolden kMeasuredGolden[] = {
    {"RR2", kEwma, false, 0xea9bcb120d06fd04ULL, 0xeb155d750ac4c240ULL},
    {"PRR2-TTL/K", kEwma, false, 0x95cdc686a8def819ULL, 0x307e119278e726e1ULL},
    {"RR3-TTL/2", kEwma, false, 0x4ce4a915e1d26b80ULL, 0x1723518f81e83cf0ULL},
    {"RRK", kEwma, false, 0x65a23398f161009aULL, 0x3167374a84dcffe6ULL},
    {"DRR2-TTL/S_K", kEwma, false, 0x99cf8453ccd0bb3fULL, 0x1278a4adc8043defULL},
    {"DRR2-TTL/S_K", kEwma, true, 0x28216ec98862fc85ULL, 0x1e4a29dab977c42eULL},
    {"PRR2-TTL/2", kHolt, false, 0x2e4d5e029fdac02fULL, 0x2d1d975d32384773ULL},
};

class MeasuredGoldenTest : public ::testing::TestWithParam<MeasuredGolden> {};

TEST_P(MeasuredGoldenTest, SerialRunIsBitIdentical) {
  const MeasuredGolden& g = GetParam();
  EXPECT_EQ(measured_serial_digest(g), g.serial) << "policy " << g.policy;
}

TEST_P(MeasuredGoldenTest, ShardedRunIsBitIdentical) {
  const MeasuredGolden& g = GetParam();
  EXPECT_EQ(measured_sharded_digest(g), g.sharded) << "policy " << g.policy;
}

INSTANTIATE_TEST_SUITE_P(MeasuredWeights, MeasuredGoldenTest,
                         ::testing::ValuesIn(kMeasuredGolden),
                         [](const ::testing::TestParamInfo<MeasuredGolden>& info) {
                           const MeasuredGolden& g = info.param;
                           std::string name = test_name(g.policy);
                           if (g.cold_start) name += "_ColdStart";
                           if (g.estimator == kHolt) name += "_Holt";
                           return name;
                         });

}  // namespace
}  // namespace adattl
