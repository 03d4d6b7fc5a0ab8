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

struct Golden {
  const char* policy;
  std::uint64_t serial;
  std::uint64_t sharded;
};

// Serial digests captured 2026-08-08 from commit c88e709 (pre-DecisionContext
// main) with the harness mirrored above. Sharded digests re-captured once
// when ShardedSite's domain layout changed from round-robin (`d % S`) to
// the largest-first partition by offered load: each shard now owns other
// domains, so its RNG split draws a different (equally valid) workload.
// Serial runs are untouched by that change and keep their digests.
constexpr Golden kGolden[] = {
    {"RR", 0x94d275d762874389ULL, 0x2bb05f6d81082b24ULL},
    {"RR2", 0x112ea85c011b9504ULL, 0x1c4240a6cf591769ULL},
    {"RR3", 0x7833fe211573b952ULL, 0x079836a4a2573fa8ULL},
    {"WRR", 0x0c2b9a25e91a178aULL, 0x9b77c39544b003d2ULL},
    {"PRR-TTL/2", 0xa1ea8e1e0a010e8fULL, 0x7b46330b8073eb58ULL},
    {"PRR2-TTL/K", 0xf94596fc079a6605ULL, 0x514eb647ac92f66eULL},
    {"DAL", 0x58a8b14ad58803eeULL, 0x5a2cf576c3b1f7a4ULL},
    {"MRL", 0x854accd64fd2e01fULL, 0x714f1de7443945b5ULL},
    {"DRR2-TTL/S_K", 0x403c52815996a3f1ULL, 0xc26b59126a2b7b13ULL},
    {"GEO-TTL/K", 0x314ea3d84ce4c846ULL, 0x08b7cdd111b0a7c4ULL},
};

class DecisionGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DecisionGolden, SerialRunIsBitIdenticalToPreRefactorMain) {
  const Golden& g = GetParam();
  EXPECT_EQ(serial_digest(g.policy), g.serial) << "policy " << g.policy;
}

TEST_P(DecisionGolden, ShardedRunIsBitIdenticalToPreRefactorMain) {
  const Golden& g = GetParam();
  EXPECT_EQ(sharded_digest(g.policy), g.sharded) << "policy " << g.policy;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DecisionGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           std::string name = info.param.policy;
                           for (char& ch : name) {
                             if (ch == '-' || ch == '/' || ch == '(' || ch == ')' ||
                                 ch == '.') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace adattl
