// Golden equivalence: a 1-shard daemon core must be bit-compatible with
// the serial core::DnsScheduler + DnsFrontend pipeline it replaced. This
// pins the sharding refactor: same policy, same seed, same query stream →
// byte-identical responses (addresses AND adaptive TTLs) and identical
// decision/assignment counters. Runs socket-free against ShardCore.
#include "dnswire/daemon.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy_factory.h"
#include "dnswire/ecs.h"
#include "dnswire/frontend.h"
#include "dnswire/message.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace adattl::dnswire {
namespace {

constexpr char kSite[] = "www.site.org";
const std::vector<std::uint32_t> kServers = {0x0a000001, 0x0a000002, 0x0a000003,
                                             0x0a000004, 0x0a000005};

DaemonConfig make_config(const std::string& policy, bool ecs) {
  DaemonConfig cfg;
  cfg.site_name = kSite;
  cfg.server_ipv4 = kServers;
  cfg.policy = policy;
  cfg.num_domains = 20;
  cfg.seed = 1234;
  cfg.ecs_enabled = ecs;
  return cfg;
}

/// The serial reference: exactly the pipeline the pre-shard daemon ran —
/// one scheduler bundle, one frontend, domain keys from the legacy source
/// hash. Built from the same factory inputs ShardCore uses.
struct SerialReference {
  sim::Simulator simulator;
  sim::RngStream rng;
  core::AlarmRegistry alarms;
  core::SchedulerBundle bundle;
  std::unique_ptr<DnsFrontend> frontend;

  SerialReference(const DaemonConfig& cfg, int shard_index = 0)
      : rng(cfg.seed + static_cast<std::uint64_t>(shard_index)),
        alarms(static_cast<int>(cfg.server_ipv4.size()), 0.9) {
    core::SchedulerFactoryConfig fc;
    if (cfg.capacities.empty()) {
      fc.capacities.assign(cfg.server_ipv4.size(), 100.0);
    } else {
      fc.capacities = cfg.capacities;
    }
    fc.initial_weights = sim::ZipfDistribution(cfg.num_domains, 1.0).probabilities();
    fc.class_threshold = 1.0 / cfg.num_domains;
    bundle = core::make_scheduler(cfg.policy, fc, alarms, simulator, rng);
    frontend = std::make_unique<DnsFrontend>(*bundle.scheduler, cfg.site_name,
                                             cfg.server_ipv4);
  }
};

/// A deterministic pseudo-random stream of (source ip, source port) pairs —
/// stands in for resolver churn without real sockets.
struct QuerySource {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

void expect_equivalent(const std::string& policy, bool ecs, int queries,
                       std::vector<double> capacities = {}) {
  DaemonConfig cfg = make_config(policy, ecs);
  cfg.capacities = std::move(capacities);
  ShardCore core(cfg, /*shard_index=*/0);
  SerialReference ref(cfg);

  QuerySource src;
  for (int i = 0; i < queries; ++i) {
    const std::uint64_t r = src.next();
    const std::uint32_t ip = static_cast<std::uint32_t>(r);
    const std::uint16_t port = static_cast<std::uint16_t>(r >> 32) | 1024;

    auto query = encode_query(static_cast<std::uint16_t>(i), kSite);
    if (ecs && i % 3 != 0) {  // mix ECS and plain queries
      ClientSubnet subnet{};
      subnet.family = kEcsFamilyIpv4;
      subnet.source_prefix = 24;
      subnet.address_len = 3;
      subnet.address[0] = static_cast<std::uint8_t>(r >> 48);
      subnet.address[1] = static_cast<std::uint8_t>(r >> 56);
      subnet.address[2] = static_cast<std::uint8_t>(r >> 40);
      append_ecs_option(&query, subnet);
    }

    // The serial reference derives its key exactly the way the daemon
    // does — ShardCore's only job on top is the socket-free plumbing.
    const web::DomainId domain = derive_domain_key(
        query.data(), query.size(), ip, port, cfg.num_domains, cfg.ecs_enabled);
    std::vector<std::uint8_t> expected;
    ref.frontend->handle(query, domain, &expected);
    const std::vector<std::uint8_t>& got =
        core.handle(query.data(), query.size(), ip, port);
    ASSERT_EQ(got, expected) << policy << " diverged at query " << i;
  }

  EXPECT_EQ(core.scheduler().decisions(), ref.bundle.scheduler->decisions());
  EXPECT_EQ(core.scheduler().assignments(), ref.bundle.scheduler->assignments());
  EXPECT_EQ(core.frontend().answered(), ref.frontend->answered());
  EXPECT_EQ(core.frontend().refused(), ref.frontend->refused());
}

TEST(DnsdGolden, RoundRobinMatchesSerial) { expect_equivalent("RR", false, 2000); }

TEST(DnsdGolden, AdaptiveTtlMatchesSerial) {
  expect_equivalent("DRR2-TTL/S_K", false, 2000);
}

TEST(DnsdGolden, AdaptiveTtlWithEcsMatchesSerial) {
  expect_equivalent("DRR2-TTL/S_K", true, 2000);
}

TEST(DnsdGolden, ProbabilisticPolicyMatchesSerial) {
  // Heterogeneous capacities make PRR2 consume the RNG stream on every
  // decision — the strongest equivalence check, since any extra or
  // missing draw desynchronizes the sequences permanently.
  expect_equivalent("PRR2-TTL/K", true, 2000, {100.0, 60.0, 80.0, 40.0, 90.0});
}

TEST(DnsdGolden, LegacySourceHashIsPinned) {
  // The exact mapping the original single-socket daemon used. If this
  // changes, cached resolver→domain assignments shift across a deploy.
  EXPECT_EQ(source_hash(0x7f000001u, 5353), 0x7f000001u ^ (5353u * 2654435761u));
  EXPECT_EQ(source_hash(0, 0), 0u);
}

TEST(DnsdGolden, ShardSeedsAreDecorrelated) {
  // Shards get distinct RNG streams (seed + shard_index): two shards
  // running a probabilistic policy over the same queries must not produce
  // identical decision sequences (they'd synchronize their server picks).
  DaemonConfig cfg = make_config("PRR2-TTL/K", false);
  // Heterogeneous capacities: with equal ones PRR's acceptance probability
  // is 1 everywhere and the policy degenerates to deterministic RR, which
  // would make this test vacuous.
  cfg.capacities = {100.0, 60.0, 80.0, 40.0, 90.0};
  ShardCore shard0(cfg, 0);
  ShardCore shard1(cfg, 1);
  SerialReference ref1(cfg, /*shard_index=*/1);

  QuerySource src;
  int diverged = 0;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t r = src.next();
    const std::uint32_t ip = static_cast<std::uint32_t>(r);
    const std::uint16_t port = static_cast<std::uint16_t>(r >> 32) | 1024;
    const auto query = encode_query(static_cast<std::uint16_t>(i), kSite);
    const auto a = shard0.handle(query.data(), query.size(), ip, port);
    const auto b = shard1.handle(query.data(), query.size(), ip, port);
    if (a != b) diverged++;
    // And shard 1 must itself be reproducible from the seed rule.
    const web::DomainId domain = derive_domain_key(query.data(), query.size(), ip,
                                                   port, cfg.num_domains, false);
    std::vector<std::uint8_t> expected;
    ref1.frontend->handle(query, domain, &expected);
    ASSERT_EQ(b, expected);
  }
  EXPECT_GT(diverged, 0) << "shards produced identical probabilistic sequences";
}

}  // namespace
}  // namespace adattl::dnswire
