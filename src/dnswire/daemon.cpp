#include "dnswire/daemon.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/policy_factory.h"

namespace adattl::dnswire {

namespace {

constexpr std::size_t kMaxDatagram = 2048;  // EDNS0 payloads fit comfortably

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void validate(const DaemonConfig& cfg) {
  if (cfg.shards < 1) throw std::invalid_argument("DaemonConfig: shards must be >= 1");
  if (cfg.batch < 1) throw std::invalid_argument("DaemonConfig: batch must be >= 1");
  if (cfg.port < 0 || cfg.port > 65535) {
    throw std::invalid_argument("DaemonConfig: port must be in [0, 65535]");
  }
  if (cfg.num_domains < 1) throw std::invalid_argument("DaemonConfig: need >= 1 domain");
  if (cfg.server_ipv4.empty()) {
    throw std::invalid_argument("DaemonConfig: no server addresses");
  }
  if (!cfg.capacities.empty() && cfg.capacities.size() != cfg.server_ipv4.size()) {
    throw std::invalid_argument("DaemonConfig: capacities must match server count");
  }
  if (!cfg.server_ipv6.empty() && cfg.server_ipv6.size() != cfg.server_ipv4.size()) {
    throw std::invalid_argument("DaemonConfig: server_ipv6 must match server count");
  }
  // Shard cores are built inside their worker threads, where a throw
  // would terminate; reject a bad policy name up front instead.
  core::validate_policy_name(cfg.policy);
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardCore
// ---------------------------------------------------------------------------

ShardCore::ShardCore(const DaemonConfig& cfg, int shard_index)
    : rng_(cfg.seed + static_cast<std::uint64_t>(shard_index)),
      alarms_(static_cast<int>(cfg.server_ipv4.size()), 0.9),
      num_domains_(cfg.num_domains),
      ecs_enabled_(cfg.ecs_enabled) {
  validate(cfg);
  core::SchedulerFactoryConfig fc;
  // Equal capacities unless the operator declared the real ones; the
  // scheduler only ever uses the ratios.
  if (cfg.capacities.empty()) {
    fc.capacities.assign(cfg.server_ipv4.size(), 100.0);
  } else {
    fc.capacities = cfg.capacities;
  }
  fc.initial_weights = sim::ZipfDistribution(cfg.num_domains, 1.0).probabilities();
  fc.class_threshold = 1.0 / cfg.num_domains;
  bundle_ = core::make_scheduler(cfg.policy, fc, alarms_, simulator_, rng_);
  frontend_ = std::make_unique<DnsFrontend>(*bundle_.scheduler, cfg.site_name,
                                            cfg.server_ipv4, cfg.server_ipv6);
  scratch_.reserve(kMaxDatagram);
}

const std::vector<std::uint8_t>& ShardCore::handle(const std::uint8_t* data,
                                                   std::size_t len,
                                                   std::uint32_t src_ip_host,
                                                   std::uint16_t src_port) {
  DomainKeySource source = DomainKeySource::kSourceHash;
  const web::DomainId domain = derive_domain_key(data, len, src_ip_host, src_port,
                                                 num_domains_, ecs_enabled_, &source);
  switch (source) {
    case DomainKeySource::kEcs: ++ecs_keys_; break;
    case DomainKeySource::kSourceHash: ++hash_keys_; break;
    case DomainKeySource::kMalformedFallback:
      ++ecs_malformed_;
      ++hash_keys_;
      break;
  }
  scratch_.assign(data, data + len);
  frontend_->handle(scratch_, domain, &reply_);
  return reply_;
}

// ---------------------------------------------------------------------------
// UdpDaemon plumbing
// ---------------------------------------------------------------------------

/// Writer: the shard thread (relaxed stores). Readers: anyone. Padded to a
/// cache line so shard counters never false-share.
struct alignas(64) ShardStatsAtomics {
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> dropped_undecodable{0};
  std::atomic<std::uint64_t> dropped_kernel{0};
  std::atomic<std::uint64_t> send_errors{0};
  std::atomic<std::uint64_t> ecs_keys{0};
  std::atomic<std::uint64_t> hash_keys{0};
  std::atomic<std::uint64_t> ecs_malformed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> decisions{0};
};

struct UdpDaemon::Shard {
  int index = 0;
  int fd = -1;
  std::unique_ptr<ShardCore> core;
  ShardStatsAtomics stats;
  std::thread thread;
  // SO_RXQ_OVFL is a cumulative per-socket counter; deltas are drops.
  std::uint32_t last_rxq_ovfl = 0;
  bool rxq_ovfl_seen = false;
};

namespace {

int open_shard_socket(const DaemonConfig& cfg, int bind_port) {
  // Blocking: a shard sleeps in recvmmsg, and request_stop() wakes it
  // with shutdown(SHUT_RD).
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  // Explicit buffer sizing: the legacy daemon inherited the (small) kernel
  // defaults and shed bursts silently. Best-effort — the kernel clamps to
  // net.core.rmem_max — but always set, never assumed.
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &cfg.rcvbuf_bytes,
                     sizeof(cfg.rcvbuf_bytes));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg.sndbuf_bytes,
                     sizeof(cfg.sndbuf_bytes));
  // Ask the kernel to report receive-queue overflow drops as ancillary
  // data, so bursts that outrun us are counted instead of vanishing.
  (void)::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(bind_port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_errno("bind");
  }
  return fd;
}

int bound_port_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

/// Extracts the cumulative SO_RXQ_OVFL counter from a msghdr's ancillary
/// data; returns false when the kernel attached none.
bool rxq_ovfl_of(msghdr& msg, std::uint32_t* value) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL &&
        c->cmsg_len >= CMSG_LEN(sizeof(std::uint32_t))) {
      std::memcpy(value, CMSG_DATA(c), sizeof(std::uint32_t));
      return true;
    }
  }
  return false;
}

/// One received datagram being shepherded through a shard: where it came
/// from, its bytes, and (after processing) the reply to send back.
struct Slot {
  sockaddr_in peer{};
  std::vector<std::uint8_t> rx;
  std::vector<std::uint8_t> tx;
  alignas(cmsghdr) char cmsg[64];
};

}  // namespace

// ---------------------------------------------------------------------------
// UdpDaemon
// ---------------------------------------------------------------------------

UdpDaemon::UdpDaemon(DaemonConfig cfg) : cfg_(std::move(cfg)) {
  validate(cfg_);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  int port = cfg_.port;
  for (int i = 0; i < cfg_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->fd = open_shard_socket(cfg_, port);
    if (i == 0) {
      bound_port_ = bound_port_of(shard->fd);
      port = bound_port_;  // shards 1..N-1 join shard 0's REUSEPORT group
    }
    shards_.push_back(std::move(shard));
  }
}

UdpDaemon::~UdpDaemon() {
  stop();
  for (auto& s : shards_) {
    if (s->fd >= 0) ::close(s->fd);
  }
}

void UdpDaemon::start() {
  if (started_) throw std::logic_error("UdpDaemon::start called twice");
  started_ = true;
  live_shards_.store(cfg_.shards, std::memory_order_relaxed);
  for (auto& s : shards_) {
    s->thread = std::thread([this, shard = s.get()] {
      shard_loop(*shard);
      live_shards_.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
}

void UdpDaemon::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  for (auto& s : shards_) {
    // shutdown() is async-signal-safe. It wakes a shard blocked in
    // recvmmsg with a zero-length read, and every later read returns at
    // once. On an unconnected UDP socket it also fails with ENOTCONN,
    // which is expected.
    (void)::shutdown(s->fd, SHUT_RD);
  }
}

void UdpDaemon::stop() {
  if (!started_ || joined_) return;
  request_stop();
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  joined_ = true;
}

bool UdpDaemon::finished() const {
  return started_ && live_shards_.load(std::memory_order_acquire) == 0;
}

ShardStatsSnapshot UdpDaemon::shard_stats(int shard) const {
  const ShardStatsAtomics& a = shards_.at(static_cast<std::size_t>(shard))->stats;
  ShardStatsSnapshot s;
  s.received = a.received.load(std::memory_order_relaxed);
  s.answered = a.answered.load(std::memory_order_relaxed);
  s.refused = a.refused.load(std::memory_order_relaxed);
  s.dropped_undecodable = a.dropped_undecodable.load(std::memory_order_relaxed);
  s.dropped_kernel = a.dropped_kernel.load(std::memory_order_relaxed);
  s.send_errors = a.send_errors.load(std::memory_order_relaxed);
  s.ecs_keys = a.ecs_keys.load(std::memory_order_relaxed);
  s.hash_keys = a.hash_keys.load(std::memory_order_relaxed);
  s.ecs_malformed = a.ecs_malformed.load(std::memory_order_relaxed);
  s.batches = a.batches.load(std::memory_order_relaxed);
  s.decisions = a.decisions.load(std::memory_order_relaxed);
  return s;
}

ShardStatsSnapshot UdpDaemon::totals() const {
  ShardStatsSnapshot t;
  for (int i = 0; i < shards(); ++i) {
    const ShardStatsSnapshot s = shard_stats(i);
    t.received += s.received;
    t.answered += s.answered;
    t.refused += s.refused;
    t.dropped_undecodable += s.dropped_undecodable;
    t.dropped_kernel += s.dropped_kernel;
    t.send_errors += s.send_errors;
    t.ecs_keys += s.ecs_keys;
    t.hash_keys += s.hash_keys;
    t.ecs_malformed += s.ecs_malformed;
    t.batches += s.batches;
    t.decisions += s.decisions;
  }
  return t;
}

void UdpDaemon::note_progress() {
  if (cfg_.max_queries == 0) return;
  if (total_handled_.load(std::memory_order_relaxed) >= cfg_.max_queries) {
    request_stop();
  }
}

// ---------------------------------------------------------------------------
// The shard I/O loop
// ---------------------------------------------------------------------------

void UdpDaemon::shard_loop(Shard& shard) {
  // The core is built on the thread that runs it so every cache line it
  // allocates is local to this shard from the start.
  shard.core = std::make_unique<ShardCore>(cfg_, shard.index);
  const int batch = cfg_.batch;
  const auto slots_n = static_cast<std::size_t>(batch);
  std::vector<Slot> slots(slots_n);

  // Persistent recvmmsg/sendmmsg scaffolding over the slots, built once;
  // batch 1 is a vector of length 1.
  std::vector<mmsghdr> rxvec(slots_n), txvec(slots_n);
  std::vector<iovec> rxio(slots_n), txio(slots_n);
  for (std::size_t i = 0; i < slots_n; ++i) {
    Slot& slot = slots[i];
    slot.rx.resize(kMaxDatagram);
    rxio[i] = {slot.rx.data(), slot.rx.size()};
    msghdr& m = rxvec[i].msg_hdr;
    m.msg_name = &slot.peer;
    m.msg_iov = &rxio[i];
    m.msg_iovlen = 1;
    m.msg_control = slot.cmsg;
    txvec[i].msg_hdr.msg_iov = &txio[i];
    txvec[i].msg_hdr.msg_iovlen = 1;
  }
  /// The kernel writes back the address and control lengths of every
  /// header it fills; restores them for the first n.
  const auto arm_rx = [&](int n) {
    for (int i = 0; i < n; ++i) {
      msghdr& m = rxvec[static_cast<std::size_t>(i)].msg_hdr;
      m.msg_namelen = sizeof(sockaddr_in);
      m.msg_controllen = sizeof(Slot::cmsg);
    }
  };
  arm_rx(batch);

  auto& st = shard.stats;

  const auto account_kernel_drops = [&](std::uint32_t cumulative) {
    if (shard.rxq_ovfl_seen) {
      // uint32 wrap-safe delta of a cumulative counter.
      const std::uint32_t delta = cumulative - shard.last_rxq_ovfl;
      if (delta != 0) st.dropped_kernel.fetch_add(delta, std::memory_order_relaxed);
    } else {
      // First observation: the counter counts since socket creation, and
      // our socket received nothing before the loop started, so the whole
      // value is drops on our watch.
      shard.rxq_ovfl_seen = true;
      if (cumulative != 0) {
        st.dropped_kernel.fetch_add(cumulative, std::memory_order_relaxed);
      }
    }
    shard.last_rxq_ovfl = cumulative;
  };

  /// Runs the scheduler over slots [0, n) and fills each tx.
  const auto process = [&](int n) {
    const DnsFrontend& f = shard.core->frontend();
    const std::uint64_t handled0 = f.answered() + f.refused();
    std::uint64_t undecodable = 0;
    for (int i = 0; i < n; ++i) {
      Slot& slot = slots[static_cast<std::size_t>(i)];
      slot.tx = shard.core->handle(slot.rx.data(), rxvec[static_cast<std::size_t>(i)].msg_len,
                                   ntohl(slot.peer.sin_addr.s_addr),
                                   ntohs(slot.peer.sin_port));
      if (slot.tx.empty()) ++undecodable;
    }
    st.received.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    st.batches.fetch_add(1, std::memory_order_relaxed);
    if (undecodable != 0) {
      st.dropped_undecodable.fetch_add(undecodable, std::memory_order_relaxed);
    }
    st.answered.store(f.answered(), std::memory_order_relaxed);
    st.refused.store(f.refused(), std::memory_order_relaxed);
    st.ecs_keys.store(shard.core->ecs_keys(), std::memory_order_relaxed);
    st.hash_keys.store(shard.core->hash_keys(), std::memory_order_relaxed);
    st.ecs_malformed.store(shard.core->ecs_malformed(), std::memory_order_relaxed);
    st.decisions.store(shard.core->scheduler().decisions(), std::memory_order_relaxed);
    total_handled_.fetch_add(f.answered() + f.refused() - handled0,
                             std::memory_order_relaxed);
  };

  const auto send_batch = [&](int n) {
    // Gather the non-empty replies into the front of the sendmmsg vector.
    unsigned count = 0;
    for (int i = 0; i < n; ++i) {
      Slot& slot = slots[static_cast<std::size_t>(i)];
      if (slot.tx.empty()) continue;
      txio[count] = {slot.tx.data(), slot.tx.size()};
      txvec[count].msg_hdr.msg_name = &slot.peer;
      txvec[count].msg_hdr.msg_namelen = sizeof(slot.peer);
      ++count;
    }
    unsigned off = 0;
    int stalls = 0;
    while (off < count) {
      const int sent = ::sendmmsg(shard.fd, txvec.data() + off, count - off, MSG_DONTWAIT);
      if (sent > 0) {
        off += static_cast<unsigned>(sent);
        stalls = 0;
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && stalls < 3) {
        ++stalls;
        pollfd p{shard.fd, POLLOUT, 0};
        (void)::poll(&p, 1, 10);
        continue;
      }
      st.send_errors.fetch_add(count - off, std::memory_order_relaxed);
      break;
    }
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Sleeps until the first datagram, then takes whatever else is queued.
    const int n = ::recvmmsg(shard.fd, rxvec.data(), static_cast<unsigned>(batch),
                             MSG_WAITFORONE, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // request_stop()'s shutdown wakes a blocked read with a zero-length
    // one that has no peer address; it only comes first, from the
    // blocking read. It is no datagram: stop.
    if (n == 0 || rxvec[0].msg_hdr.msg_namelen == 0) break;
    std::uint32_t ovfl = 0;
    if (rxq_ovfl_of(rxvec[static_cast<std::size_t>(n - 1)].msg_hdr, &ovfl)) {
      account_kernel_drops(ovfl);
    }
    process(n);
    send_batch(n);
    note_progress();
    arm_rx(n);
  }
}

}  // namespace adattl::dnswire
