// Multi-shard daemon stress: real sockets, concurrent resolvers, decision
// conservation. Run under TSan in CI (-DADATTL_SANITIZE=thread) — the
// shard hot path is supposed to be lock-free because it shares nothing,
// and this test is where that claim meets the checker.
//
// Sized for a 1-CPU CI container: enough packets to interleave shard
// wakeups and stats snapshots, not a throughput benchmark.
#include "dnswire/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dnswire/ecs.h"
#include "dnswire/message.h"

namespace adattl::dnswire {
namespace {

constexpr char kSite[] = "www.site.org";
const std::vector<std::uint32_t> kServers = {0x0a000001, 0x0a000002, 0x0a000003};

DaemonConfig daemon_config(int shards, int batch) {
  DaemonConfig cfg;
  cfg.site_name = kSite;
  cfg.server_ipv4 = kServers;
  cfg.policy = "DRR2-TTL/S_K";
  cfg.num_domains = 20;
  cfg.seed = 7;
  cfg.port = 0;  // ephemeral
  cfg.shards = shards;
  cfg.batch = batch;
  return cfg;
}

/// One closed-loop resolver: send a query, wait for the reply, retry on
/// UDP loss. Every reply is decoded and checked against the server set.
struct ClientResult {
  int answers = 0;
  int malformed = 0;
  int bad_address = 0;
  int gave_up = 0;
};

ClientResult run_client(int port, int queries, bool with_ecs, unsigned salt) {
  ClientResult res;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    res.gave_up = queries;
    return res;
  }
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<std::uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    ::close(fd);
    res.gave_up = queries;
    return res;
  }

  std::uint8_t rx[2048];
  for (int i = 0; i < queries; ++i) {
    auto q = encode_query(static_cast<std::uint16_t>(i), kSite);
    if (with_ecs) {
      ClientSubnet s{};
      s.family = kEcsFamilyIpv4;
      s.source_prefix = 24;
      s.address_len = 3;
      s.address[0] = 10;
      s.address[1] = static_cast<std::uint8_t>(salt);
      s.address[2] = static_cast<std::uint8_t>(i);
      append_ecs_option(&q, s);
    }
    bool got = false;
    for (int attempt = 0; attempt < 8 && !got; ++attempt) {
      if (::send(fd, q.data(), q.size(), 0) != static_cast<ssize_t>(q.size())) continue;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 500) <= 0) continue;
      const ssize_t n = ::recv(fd, rx, sizeof(rx), 0);
      if (n < 12) continue;
      // A retry's late twin can arrive first; ids match so either copy
      // of the same query's answer is acceptable.
      std::vector<std::uint8_t> wire(rx, rx + n);
      Header h;
      std::uint32_t ip = 0, ttl = 0;
      if (!decode_a_response(wire, &h, &ip, &ttl)) {
        res.malformed++;
        continue;
      }
      if (h.rcode == kRcodeNoError) {
        bool known = false;
        for (const auto s : kServers) known = known || (s == ip);
        if (!known || ttl < 1) res.bad_address++;
        else res.answers++;
        got = true;
      }
    }
    if (!got) res.gave_up++;
  }
  ::close(fd);
  return res;
}

TEST(DnsdConcurrent, DecisionConservationAcrossShards) {
  // Batch 8 fills mmsg vectors; batch 1 runs the same loop one datagram
  // per syscall.
  for (const int batch : {8, 1}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    UdpDaemon daemon(daemon_config(/*shards=*/4, batch));
    daemon.start();

    constexpr int kClients = 8;
    constexpr int kQueriesPer = 150;
    std::vector<std::thread> threads;
    std::vector<ClientResult> results(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        // Half the resolvers forward ECS, half rely on the source hash.
        results[static_cast<std::size_t>(c)] = run_client(
            daemon.port(), kQueriesPer, /*with_ecs=*/c % 2 == 0, static_cast<unsigned>(c));
      });
    }
    for (auto& t : threads) t.join();
    daemon.stop();

    int answers = 0, malformed = 0, bad = 0, gave_up = 0;
    for (const auto& r : results) {
      answers += r.answers;
      malformed += r.malformed;
      bad += r.bad_address;
      gave_up += r.gave_up;
    }
    EXPECT_EQ(malformed, 0);
    EXPECT_EQ(bad, 0);
    // Loopback UDP with retries: essentially everything should get through.
    EXPECT_GE(answers, kClients * kQueriesPer * 9 / 10) << "gave_up=" << gave_up;

    // The conservation law: every positive answer consumed exactly one
    // scheduling decision, across all shards, no double-counting, no loss.
    const ShardStatsSnapshot t = daemon.totals();
    EXPECT_EQ(t.decisions, t.answered);
    EXPECT_EQ(t.refused, 0u);
    EXPECT_GE(t.answered, static_cast<std::uint64_t>(answers));
    EXPECT_GT(t.ecs_keys, 0u);   // the ECS half was really keyed by subnet
    EXPECT_GT(t.hash_keys, 0u);  // and the plain half by source hash
    EXPECT_EQ(t.ecs_malformed, 0u);
    EXPECT_EQ(t.dropped_undecodable, 0u);

    // Per-shard sums must equal the totals (snapshot coherence).
    ShardStatsSnapshot sum;
    for (int s = 0; s < daemon.shards(); ++s) {
      const auto ss = daemon.shard_stats(s);
      sum.answered += ss.answered;
      sum.decisions += ss.decisions;
      sum.received += ss.received;
    }
    EXPECT_EQ(sum.answered, t.answered);
    EXPECT_EQ(sum.decisions, t.decisions);
    EXPECT_EQ(sum.received, t.received);
  }
}

TEST(DnsdConcurrent, MetricsPublishWhileShardsRun) {
  // The daemon's metrics are the shards' own relaxed-atomic counters, read
  // by another thread while the shards write them (the periodic stats
  // lines do this) — TSan checks the claim. Each read is monotone.
  auto cfg = daemon_config(/*shards=*/2, /*batch=*/4);
  UdpDaemon daemon(cfg);
  daemon.start();

  std::thread client([&] { run_client(daemon.port(), 300, true, 1); });
  std::vector<ShardStatsSnapshot> last(static_cast<std::size_t>(daemon.shards()));
  for (int i = 0; i < 50; ++i) {
    for (int s = 0; s < daemon.shards(); ++s) {
      const ShardStatsSnapshot now = daemon.shard_stats(s);
      ShardStatsSnapshot& prev = last[static_cast<std::size_t>(s)];
      EXPECT_GE(now.received, prev.received);
      EXPECT_GE(now.answered, prev.answered);
      EXPECT_GE(now.decisions, prev.decisions);
      prev = now;
    }
    (void)daemon.totals();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client.join();
  daemon.stop();

  std::uint64_t answered = 0;
  for (int s = 0; s < daemon.shards(); ++s) answered += daemon.shard_stats(s).answered;
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(answered, daemon.totals().answered);
}

TEST(DnsdConcurrent, MaxQueriesStopsAllShards) {
  auto cfg = daemon_config(/*shards=*/2, /*batch=*/4);
  cfg.max_queries = 100;
  UdpDaemon daemon(cfg);
  daemon.start();

  std::atomic<bool> done{false};
  std::thread client([&] {
    // Open-loop blaster: keep sending until the daemon says it is done.
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_port = htons(static_cast<std::uint16_t>(daemon.port()));
    inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
    ::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
    const auto q = encode_query(1, kSite);
    std::uint8_t rx[2048];
    while (!done.load(std::memory_order_relaxed)) {
      ::send(fd, q.data(), q.size(), 0);
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 5) > 0) (void)::recv(fd, rx, sizeof(rx), 0);
    }
    ::close(fd);
  });

  for (int i = 0; i < 2000 && !daemon.finished(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(daemon.finished());
  done.store(true);
  client.join();
  daemon.stop();
  EXPECT_GE(daemon.totals().answered + daemon.totals().refused, 100u);
}

TEST(DnsdConcurrent, StopWithoutTrafficIsClean) {
  UdpDaemon daemon(daemon_config(3, 16));
  daemon.start();
  EXPECT_FALSE(daemon.finished());
  daemon.request_stop();  // the signal-handler path
  daemon.stop();
  EXPECT_TRUE(daemon.finished());
  // The shutdown that wakes each shard is no datagram: nothing is counted.
  const ShardStatsSnapshot t = daemon.totals();
  EXPECT_EQ(t.received, 0u);
  EXPECT_EQ(t.batches, 0u);
  EXPECT_EQ(t.dropped_undecodable, 0u);
}

}  // namespace
}  // namespace adattl::dnswire
