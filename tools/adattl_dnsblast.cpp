// adattl_dnsblast — open-loop UDP DNS load generator for adattl_dnsd.
//
//   ./build/tools/adattl_dnsblast --port=5353 --qps=50000 --duration=5 --json
//
// Open-loop means the send schedule never waits for replies: queries go
// out on a fixed cadence (--qps; 0 = as fast as the socket accepts) so a
// slow server shows up as latency and loss instead of silently throttling
// the offered load. With --qps each query leaves at its own due time, and
// the generator waits for replies in ppoll until the next one is due.
// Latency is matched by DNS message id through a ring of send timestamps
// and accumulated into a log-geometric histogram (~1 µs .. ~1 s) for
// p50/p90/p99 without storing samples.
//
// --ecs rotates an EDNS0 Client-Subnet option over --subnets distinct /24
// prefixes so the daemon's subnet-keyed path is exercised; without it the
// daemon falls back to the source-address hash.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "dnswire/ecs.h"
#include "dnswire/message.h"
#include "flag_number.h"

using namespace adattl;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kTool = "adattl_dnsblast";

/// Log-geometric latency histogram: 64 buckets per factor-of-10 decade
/// from 1 µs to 1 s. Fixed memory, ~3.7% relative quantile error.
class LatencyHistogram {
 public:
  static constexpr int kDecades = 6;          // 1e0 .. 1e6 µs
  static constexpr int kPerDecade = 64;
  static constexpr int kBuckets = kDecades * kPerDecade + 2;

  void record(double us) {
    counts_[bucket(us)]++;
    total_++;
  }
  std::uint64_t total() const { return total_; }

  /// Returns the bucket-midpoint latency (µs) at quantile q in [0,1].
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    std::uint64_t target = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (target >= total_) target = total_ - 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > target) return midpoint(b);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static int bucket(double us) {
    if (us < 1.0) return 0;
    const double pos = std::log10(us) * kPerDecade;
    const int b = 1 + static_cast<int>(pos);
    return b >= kBuckets ? kBuckets - 1 : b;
  }
  static double midpoint(int b) {
    if (b == 0) return 0.5;
    return std::pow(10.0, (static_cast<double>(b - 1) + 0.5) / kPerDecade);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

struct Options {
  std::string host = "127.0.0.1";
  int port = 5353;
  std::string name = "www.site.org";
  double qps = 0.0;        // 0 = unpaced, send as fast as possible
  double duration_sec = 2.0;
  bool ecs = false;
  int subnets = 64;        // distinct /24 prefixes to rotate through
  int batch = 32;          // datagrams per sendmmsg/recvmmsg call
  bool json = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: adattl_dnsblast [--host=IP] [--port=N] [--name=FQDN]\n"
               "  [--qps=N (0 = max)] [--duration=SEC] [--ecs] [--subnets=N]\n"
               "  [--batch=N (datagrams per sendmmsg/recvmmsg)] [--json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto number = [&] { return tools::flag_number(kTool, flag, value); };
    const auto whole = [&] { return static_cast<int>(tools::flag_integer(kTool, flag, value)); };
    const auto boolean = [&] { return tools::flag_bool(kTool, flag, value, eq != arg.npos); };
    if (flag == "--host") opt.host = value;
    else if (flag == "--port") opt.port = whole();
    else if (flag == "--name") opt.name = value;
    else if (flag == "--qps") opt.qps = number();
    else if (flag == "--duration") opt.duration_sec = number();
    else if (flag == "--ecs") opt.ecs = boolean();
    else if (flag == "--subnets") opt.subnets = whole();
    else if (flag == "--batch") opt.batch = whole();
    else if (flag == "--json") opt.json = boolean();
    else return usage();
  }
  if (opt.port <= 0 || opt.port > 65535 || opt.duration_sec <= 0 || opt.subnets < 1 ||
      opt.batch < 1 || opt.batch > 1024)
    return usage();

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    std::perror("adattl_dnsblast: socket");
    return 1;
  }
  int buf = 1 << 21;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (inet_pton(AF_INET, opt.host.c_str(), &dst.sin_addr) != 1) {
    std::fprintf(stderr, "adattl_dnsblast: bad host %s\n", opt.host.c_str());
    return 2;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    std::perror("adattl_dnsblast: connect");
    return 1;
  }

  // Pre-build one query per ECS subnet variant (or a single plain one);
  // per-send we only patch the 2-byte id. Ring of send timestamps indexed
  // by id lets a reply be matched without per-query allocation.
  std::vector<std::vector<std::uint8_t>> templates;
  const int variants = opt.ecs ? opt.subnets : 1;
  templates.reserve(static_cast<std::size_t>(variants));
  for (int v = 0; v < variants; ++v) {
    std::vector<std::uint8_t> q = dnswire::encode_query(0, opt.name);
    if (opt.ecs) {
      dnswire::ClientSubnet subnet{};
      subnet.family = dnswire::kEcsFamilyIpv4;
      subnet.source_prefix = 24;
      subnet.address_len = 3;
      subnet.address[0] = 10;
      subnet.address[1] = static_cast<std::uint8_t>(v >> 8);
      subnet.address[2] = static_cast<std::uint8_t>(v & 0xff);
      dnswire::append_ecs_option(&q, subnet);
    }
    templates.push_back(std::move(q));
  }

  constexpr int kRing = 65536;  // one slot per possible DNS id
  std::vector<Clock::time_point> sent_at(kRing);
  std::vector<std::uint8_t> sent_valid(kRing, 0);

  LatencyHistogram hist;
  std::uint64_t sent = 0, send_fails = 0, received = 0, answers = 0, refused = 0;
  std::uint16_t next_id = 1;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.duration_sec);

  // One reply's worth of accounting.
  const auto note_reply = [&](const std::uint8_t* buf, ssize_t n,
                              const Clock::time_point& now) {
    received++;
    if (n < 4) return;
    const std::uint16_t id = static_cast<std::uint16_t>(buf[0]) << 8 | buf[1];
    const std::uint8_t rcode = buf[3] & 0x0f;
    if (rcode == dnswire::kRcodeNoError) answers++;
    else if (rcode == dnswire::kRcodeRefused) refused++;
    if (sent_valid[id]) {
      sent_valid[id] = 0;
      hist.record(std::chrono::duration<double, std::micro>(now - sent_at[id]).count());
    }
  };

  // Reused header/buffer arrays for recvmmsg and sendmmsg; batch 1 is a
  // vector of one.
  const int B = opt.batch;
  std::vector<std::vector<std::uint8_t>> rx_bufs(static_cast<std::size_t>(B));
  std::vector<iovec> rx_iov(static_cast<std::size_t>(B));
  std::vector<mmsghdr> rx_hdrs(static_cast<std::size_t>(B));
  for (int i = 0; i < B; ++i) rx_bufs[static_cast<std::size_t>(i)].resize(2048);
  std::vector<std::vector<std::uint8_t>> tx_bufs(static_cast<std::size_t>(B));
  std::vector<iovec> tx_iov(static_cast<std::size_t>(B));
  std::vector<mmsghdr> tx_hdrs(static_cast<std::size_t>(B));

  /// Takes every reply already queued, without waiting.
  auto drain_replies = [&] {
    for (;;) {
      for (int i = 0; i < B; ++i) {
        auto& iv = rx_iov[static_cast<std::size_t>(i)];
        iv.iov_base = rx_bufs[static_cast<std::size_t>(i)].data();
        iv.iov_len = rx_bufs[static_cast<std::size_t>(i)].size();
        auto& mh = rx_hdrs[static_cast<std::size_t>(i)];
        std::memset(&mh, 0, sizeof(mh));
        mh.msg_hdr.msg_iov = &iv;
        mh.msg_hdr.msg_iovlen = 1;
      }
      const int got = ::recvmmsg(fd, rx_hdrs.data(), static_cast<unsigned>(B),
                                 MSG_DONTWAIT, nullptr);
      if (got <= 0) return;
      const auto now = Clock::now();
      for (int i = 0; i < got; ++i) {
        note_reply(rx_bufs[static_cast<std::size_t>(i)].data(),
                   static_cast<ssize_t>(rx_hdrs[static_cast<std::size_t>(i)].msg_len), now);
      }
      if (got < B) return;  // socket drained
    }
  };

  /// Sends up to `want` queries; returns how many actually left.
  const auto send_burst = [&](int want) {
    int done = 0;
    while (done < want) {
      const int k = std::min(B, want - done);
      for (int i = 0; i < k; ++i) {
        auto& buf = tx_bufs[static_cast<std::size_t>(i)];
        buf = templates[(sent + static_cast<std::uint64_t>(i)) % templates.size()];
        const std::uint16_t id = next_id++;
        buf[0] = static_cast<std::uint8_t>(id >> 8);
        buf[1] = static_cast<std::uint8_t>(id & 0xff);
        auto& iv = tx_iov[static_cast<std::size_t>(i)];
        iv.iov_base = buf.data();
        iv.iov_len = buf.size();
        auto& mh = tx_hdrs[static_cast<std::size_t>(i)];
        std::memset(&mh, 0, sizeof(mh));
        mh.msg_hdr.msg_iov = &iv;
        mh.msg_hdr.msg_iovlen = 1;
      }
      const int out = ::sendmmsg(fd, tx_hdrs.data(), static_cast<unsigned>(k), 0);
      const auto now = Clock::now();
      if (out <= 0) {
        send_fails += static_cast<std::uint64_t>(k);
        return done;
      }
      for (int i = 0; i < out; ++i) {
        const auto& buf = tx_bufs[static_cast<std::size_t>(i)];
        const std::uint16_t id = static_cast<std::uint16_t>(buf[0]) << 8 | buf[1];
        sent_at[id] = now;
        sent_valid[id] = 1;
      }
      sent += static_cast<std::uint64_t>(out);
      done += out;
      if (out < k) {  // kernel refused part of the batch: buffers full
        send_fails += static_cast<std::uint64_t>(k - out);
        return done;
      }
    }
    return done;
  };

  /// Takes replies as they arrive until `until`, sleeping in ppoll between
  /// them; returns at once if `until` has passed.
  const auto await_replies = [&](Clock::time_point until) {
    for (;;) {
      drain_replies();
      const auto now = Clock::now();
      if (now >= until) return;
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(until - now).count();
      const timespec timeout{static_cast<time_t>(wait / 1000000000),
                             static_cast<long>(wait % 1000000000)};
      pollfd p{fd, POLLIN, 0};
      if (::ppoll(&p, 1, &timeout, nullptr) <= 0) return;
    }
  };

  if (opt.qps > 0) {
    // Query k is due at start + k / qps; one the generator is late for
    // leaves at once.
    const std::chrono::duration<double> gap(1.0 / opt.qps);
    for (std::uint64_t k = 0;; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(gap * static_cast<double>(k));
      if (due >= deadline) break;
      await_replies(due);
      send_burst(1);
    }
  } else {
    while (Clock::now() < deadline) {
      send_burst(std::max(64, opt.batch));
      drain_replies();
    }
  }
  // Post-deadline grace: collect in-flight replies for up to 200 ms.
  const auto grace = Clock::now() + std::chrono::milliseconds(200);
  while (Clock::now() < grace && received < sent) {
    await_replies(std::min(grace, Clock::now() + std::chrono::milliseconds(1)));
  }
  ::close(fd);

  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  const double answers_per_sec = static_cast<double>(answers) / opt.duration_sec;
  const double p50 = hist.quantile(0.50), p90 = hist.quantile(0.90), p99 = hist.quantile(0.99);
  if (opt.json) {
    std::printf(
        "{\"sent\": %llu, \"send_fails\": %llu, \"received\": %llu, \"answers\": %llu, "
        "\"refused\": %llu, \"duration_sec\": %.3f, \"answers_per_sec\": %.1f, "
        "\"p50_us\": %.1f, \"p90_us\": %.1f, \"p99_us\": %.1f, \"ecs\": %s, \"batch\": %d}\n",
        static_cast<unsigned long long>(sent), static_cast<unsigned long long>(send_fails),
        static_cast<unsigned long long>(received), static_cast<unsigned long long>(answers),
        static_cast<unsigned long long>(refused), elapsed, answers_per_sec, p50, p90, p99,
        opt.ecs ? "true" : "false", opt.batch);
  } else {
    std::printf("sent %llu (%llu send-fails), received %llu, answers %llu, refused %llu\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(send_fails),
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(answers),
                static_cast<unsigned long long>(refused));
    std::printf("%.1f answers/s over %.2f s; latency p50 %.0f us, p90 %.0f us, p99 %.0f us\n",
                answers_per_sec, elapsed, p50, p90, p99);
  }
  return answers > 0 ? 0 : 1;
}
