#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_factory.h"
#include "dnswire/ecs.h"
#include "dnswire/frontend.h"

namespace adattl::dnswire {

/// Everything needed to stand up the sharded authoritative daemon.
struct DaemonConfig {
  std::string site_name = "www.site.org";
  std::vector<std::uint32_t> server_ipv4;  ///< host byte order, index == ServerId
  /// Optional native IPv6 addresses (wire order, index == ServerId) for
  /// AAAA answers. Empty = answer AAAA with v4-mapped ::ffff:a.b.c.d.
  std::vector<Ipv6> server_ipv6;
  /// Absolute server capacities C_i, index == ServerId. Empty = all equal
  /// (the scheduler only uses ratios). Size must match server_ipv4 if set.
  std::vector<double> capacities;
  std::string policy = "DRR2-TTL/S_K";
  int num_domains = 20;
  std::uint64_t seed = 1;
  int port = 5353;   ///< 0 = ephemeral; UdpDaemon::port() reports the bound one
  int shards = 1;    ///< worker shards, each with its own SO_REUSEPORT socket
  int batch = 32;    ///< recvmmsg/sendmmsg vector length (datagrams per syscall)
  bool ecs_enabled = true;  ///< derive domain keys from EDNS0 Client-Subnet
  int rcvbuf_bytes = 1 << 21;
  int sndbuf_bytes = 1 << 21;
  std::uint64_t max_queries = 0;  ///< stop after N answered+refused total (0 = run on)
};

/// Point-in-time copy of one shard's counters (relaxed-atomic reads; the
/// shard thread is the only writer).
struct ShardStatsSnapshot {
  std::uint64_t received = 0;        ///< datagrams read off the socket
  std::uint64_t answered = 0;        ///< positive answers sent
  std::uint64_t refused = 0;         ///< error-rcode answers sent
  std::uint64_t dropped_undecodable = 0;  ///< id unrecoverable: no reply at all
  std::uint64_t dropped_kernel = 0;  ///< SO_RXQ_OVFL: datagrams the kernel shed
  std::uint64_t send_errors = 0;     ///< replies lost to sendmmsg failures
  std::uint64_t ecs_keys = 0;        ///< domain keys derived from a Client-Subnet
  std::uint64_t hash_keys = 0;       ///< keys from the legacy source-address hash
  std::uint64_t ecs_malformed = 0;   ///< ECS present but unusable: hash fallback
  std::uint64_t batches = 0;         ///< recv syscalls that returned >= 1 datagram
  std::uint64_t decisions = 0;       ///< scheduling decisions this shard consumed
};

/// The socket-free packet-processing core of one shard: its own scheduler
/// bundle (selection + TTL state), its own DnsFrontend, its own RNG — zero
/// shared mutable state between shards, so the hot decision path needs no
/// locks at all. A 1-shard daemon therefore runs bit-identically to the
/// serial core::DnsScheduler (pinned by tests/test_dnsd_golden.cpp).
class ShardCore {
 public:
  /// `shard_index` decorrelates probabilistic policies across shards
  /// (stream seed = cfg.seed + shard_index, the parallel-executor rule).
  ShardCore(const DaemonConfig& cfg, int shard_index);

  /// Processes one query datagram: derives the domain key (ECS when
  /// enabled and present, source hash otherwise), feeds the frontend, and
  /// returns the reply bytes (empty = drop). The returned reference stays
  /// valid until the next handle() call; buffers are reused so the steady
  /// state settles into zero allocations per packet.
  const std::vector<std::uint8_t>& handle(const std::uint8_t* data, std::size_t len,
                                          std::uint32_t src_ip_host,
                                          std::uint16_t src_port);

  core::DnsScheduler& scheduler() { return *bundle_.scheduler; }
  const core::DnsScheduler& scheduler() const { return *bundle_.scheduler; }
  DnsFrontend& frontend() { return *frontend_; }
  const DnsFrontend& frontend() const { return *frontend_; }

  std::uint64_t ecs_keys() const { return ecs_keys_; }
  std::uint64_t hash_keys() const { return hash_keys_; }
  std::uint64_t ecs_malformed() const { return ecs_malformed_; }

 private:
  sim::Simulator simulator_;
  sim::RngStream rng_;
  core::AlarmRegistry alarms_;
  core::SchedulerBundle bundle_;
  std::unique_ptr<DnsFrontend> frontend_;
  std::vector<std::uint8_t> scratch_;  ///< query copy handed to the frontend
  std::vector<std::uint8_t> reply_;
  int num_domains_;
  bool ecs_enabled_;
  std::uint64_t ecs_keys_ = 0;
  std::uint64_t hash_keys_ = 0;
  std::uint64_t ecs_malformed_ = 0;
};

/// Multi-core authoritative UDP DNS server: N worker shards, each with its
/// own SO_REUSEPORT socket (the kernel spreads resolvers across shards by
/// flow hash), its own epoll loop woken by an eventfd, recvmmsg/sendmmsg
/// I/O for every batch size (batch 1 is a vector of length 1), explicit
/// SO_RCVBUF/SO_SNDBUF sizing and SO_RXQ_OVFL drop accounting. Linux only.
///
/// Lifecycle: the constructor binds every socket (throws on failure),
/// start() launches the shard threads, stop() requests a graceful drain
/// (each shard finishes the batch in hand, answers it, then exits) and
/// joins. Per-shard stats are relaxed atomics, safe to snapshot from any
/// thread while shards run.
class UdpDaemon {
 public:
  explicit UdpDaemon(DaemonConfig cfg);
  ~UdpDaemon();

  UdpDaemon(const UdpDaemon&) = delete;
  UdpDaemon& operator=(const UdpDaemon&) = delete;

  void start();
  void stop();

  /// Async-signal-safe stop request: sets the stop flag and wakes every
  /// shard. Safe to call from a signal handler; follow with stop() from a
  /// normal context to join.
  void request_stop() noexcept;

  /// True once every shard has exited its loop (max_queries reached or a
  /// stop was requested).
  bool finished() const;

  int port() const { return bound_port_; }
  int shards() const { return static_cast<int>(shards_.size()); }

  ShardStatsSnapshot shard_stats(int shard) const;
  ShardStatsSnapshot totals() const;

 private:
  struct Shard;

  void shard_loop(Shard& shard);
  void note_progress();  ///< max_queries bookkeeping, called per batch

  DaemonConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  std::atomic<int> live_shards_{0};
  std::atomic<std::uint64_t> total_handled_{0};
  int bound_port_ = 0;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace adattl::dnswire
