// dnsd_open_loop: the shipped adattl_dnsd in its own process, driven by the
// open-loop generator over loopback UDP. One generator socket per daemon
// shard (picked by probing which shard answers it), at most nproc threads
// in this process. Phases: a fixed rate well below saturation, a lower
// rate (latency must not rise when the rate falls), then a search for the
// highest rate that meets the latency SLO.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_factory.h"
#include "dnswire/daemon.h"
#include "dnswire/ecs.h"
#include "dnswire/message.h"
#include "host_ref.h"
#include "proc.h"
#include "replay.h"
#include "report.h"
#include "sim/random.h"
#include "udp_gen.h"
#include "web/cluster.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace dnswire = adattl::dnswire;

constexpr int kShards = 2;
constexpr int kDomains = 20;
constexpr double kSloP99Us = 1000.0;        ///< latency limit at p99
constexpr double kSloFailedFraction = 0.001;
constexpr double kLagBoundUs = 200.0;        ///< generator validity: lag p99 at most this
constexpr int kSubnets = 64;  ///< ECS /24s, as adattl_dnsblast --ecs rotates through
/// How strongly the daemon's figures follow the host reference when the
/// host slows (host_ref.h). Answer latency and answers per CPU-second
/// (system calls, loopback UDP) moved about half as much as the reference
/// across 16 runs in two host states, launch time across 8; scaled with
/// this exponent, their run-to-run spread fell from 0.11-0.13 to
/// 0.04-0.07 (exponent 1 did worse: 0.07-0.10 on launch time).
constexpr double kDaemonElasticity = 0.5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Owned file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// A non-blocking UDP socket connected to 127.0.0.1:port.
std::unique_ptr<Fd> udp_socket(int port) {
  auto fd = std::make_unique<Fd>(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0));
  if (fd->get() < 0) throw std::runtime_error("socket() failed");
  const int buf = 4 << 20;
  ::setsockopt(fd->get(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  ::setsockopt(fd->get(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(static_cast<std::uint16_t>(port));
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd->get(), reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
    throw std::runtime_error("connect() failed");
  }
  return fd;
}

/// Per-shard counters from the daemon's stats lines on stderr.
struct ShardLine {
  unsigned long long rx = 0, answered = 0, refused = 0, kernel_drops = 0, send_errors = 0,
                     ecs = 0, malformed = 0, batches = 0, decisions = 0;
};

/// One adattl_dnsd child process. Stderr is a pipe this object parses: the
/// bound port from the start-up line, then per-shard stats blocks.
class Daemon {
 public:
  Daemon(const std::string& path, const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int devnull = ::open("/dev/null", O_RDWR);
      ::dup2(devnull, 0);
      ::dup2(devnull, 1);
      ::dup2(fds[1], 2);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    err_fd_ = fds[0];
    ::fcntl(err_fd_, F_SETFL, O_NONBLOCK);
    if (pid_ < 0) throw std::runtime_error("cannot start " + path);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) ::close(err_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  const std::vector<ShardLine>& shards() const { return shards_; }

  /// Reads what stderr holds (waiting up to `wait_ms` for data); false at EOF.
  bool pump(int wait_ms = 0) {
    pollfd p{err_fd_, POLLIN, 0};
    if (wait_ms > 0) ::poll(&p, 1, wait_ms);
    char buf[8192];
    for (;;) {
      const ssize_t n = ::read(err_fd_, buf, sizeof buf);
      if (n == 0) return false;
      if (n < 0) return true;
      pending_.append(buf, static_cast<std::size_t>(n));
      for (std::size_t nl; (nl = pending_.find('\n')) != std::string::npos;) {
        parse_line(pending_.substr(0, nl));
        pending_.erase(0, nl + 1);
      }
    }
  }

  /// Waits for the start-up line naming the bound port.
  void wait_port(double timeout_s) {
    const auto t0 = Clock::now();
    while (port_ == 0) {
      if (!pump(5) || seconds_since(t0) > timeout_s) {
        throw std::runtime_error("adattl_dnsd did not report its port");
      }
    }
  }

  /// Blocks until `n` more complete stats blocks have arrived.
  void wait_blocks(std::uint64_t n) {
    const std::uint64_t target = blocks_ + n;
    const auto t0 = Clock::now();
    while (blocks_ < target) {
      if (!pump(5) || seconds_since(t0) > 5.0) throw std::runtime_error("no stats from adattl_dnsd");
    }
  }

  /// SIGTERM, then read the final stats until stderr closes, then reap.
  void stop() {
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    while (pump(20)) {
      if (seconds_since(t0) > 10.0) ::kill(pid_, SIGKILL);
    }
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  void parse_line(const std::string& line) {
    const std::size_t at = line.find("on 127.0.0.1:");
    if (port_ == 0 && at != std::string::npos) {
      port_ = std::atoi(line.c_str() + at + 13);
      return;
    }
    int shard = -1;
    ShardLine s;
    if (std::sscanf(line.c_str(),
                    "adattl_dnsd: shard %d: rx %llu answered %llu refused %llu kernel-drops %llu "
                    "send-errors %llu ecs %llu (malformed %llu) batches %llu decisions %llu",
                    &shard, &s.rx, &s.answered, &s.refused, &s.kernel_drops, &s.send_errors,
                    &s.ecs, &s.malformed, &s.batches, &s.decisions) == 10 &&
        shard >= 0 && shard < 64) {
      if (shards_.size() <= static_cast<std::size_t>(shard)) shards_.resize(shard + 1);
      shards_[static_cast<std::size_t>(shard)] = s;
      if (shard == kShards - 1) ++blocks_;
    }
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  std::string pending_;
  std::vector<ShardLine> shards_;
  std::uint64_t blocks_ = 0;
};

/// The query mix adattl_dnsblast --ecs sends: A queries for www.site.org,
/// each with an EDNS0 Client-Subnet option naming one of kSubnets /24s,
/// rotating through every subnet in turn. The seed sets the rotation order.
struct QueryMix {
  std::vector<std::vector<std::uint8_t>> templates;  ///< one per subnet
  std::vector<std::uint32_t> order;                  ///< a permutation of the subnets
};

QueryMix make_mix(std::uint64_t seed) {
  QueryMix m;
  for (int v = 0; v < kSubnets; ++v) {
    std::vector<std::uint8_t> q = dnswire::encode_query(0, "www.site.org");
    dnswire::ClientSubnet subnet{};
    subnet.family = dnswire::kEcsFamilyIpv4;
    subnet.source_prefix = 24;
    subnet.address_len = 3;
    subnet.address[0] = 10;
    subnet.address[1] = static_cast<std::uint8_t>(v >> 8);
    subnet.address[2] = static_cast<std::uint8_t>(v & 0xff);
    dnswire::append_ecs_option(&q, subnet);
    m.templates.push_back(std::move(q));
    m.order.push_back(static_cast<std::uint32_t>(v));
  }
  adattl::sim::RngStream rng(seed);
  for (std::size_t i = m.order.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(m.order[i], m.order[rng.uniform_int(0, i)]);
  }
  return m;
}

/// Reply checks: an A response to www.site.org, NOERROR, one address from
/// the configured servers and a TTL > 0.
class ReplyVerifier {
 public:
  explicit ReplyVerifier(const std::vector<std::uint32_t>& servers)
      : servers_(servers.begin(), servers.end()) {}

  Verdict operator()(const std::uint8_t* data, std::size_t len) const {
    if (len < 12 || (data[2] & 0x80) == 0) return Verdict::kWrong;
    if ((data[3] & 0x0f) != dnswire::kRcodeNoError) return Verdict::kRefused;
    std::size_t pos = 12;
    std::string qname;
    if (!dnswire::decode_name(data, len, &pos, &qname) || qname != "www.site.org") {
      return Verdict::kWrong;
    }
    thread_local std::vector<std::uint8_t> wire;
    wire.assign(data, data + len);
    dnswire::Header h;
    std::uint32_t ip = 0;
    std::uint32_t ttl = 0;
    if (!dnswire::decode_a_response(wire, &h, &ip, &ttl) || h.ancount < 1 ||
        !servers_.count(ip)) {
      return Verdict::kWrong;
    }
    return ttl > 0 ? Verdict::kAnswer : Verdict::kWrong;
  }

 private:
  std::set<std::uint32_t> servers_;
};

/// Sockets that query the daemon outside the generator (readiness and
/// shard probes). They stay open until the daemon has stopped and count
/// every positive answer they read, so each answer the daemon sent is
/// accounted for.
class Probes {
 public:
  int open(int port) {
    sockets_.push_back(udp_socket(port));
    return sockets_.back()->get();
  }

  /// Hands a probe socket over (to the generator, which counts from then on).
  std::unique_ptr<Fd> take(int fd) {
    for (auto& s : sockets_) {
      if (s && s->get() == fd) return std::move(s);
    }
    return nullptr;
  }

  /// Closes every socket; for a daemon that is being replaced.
  void reset() {
    sockets_.clear();
    answers_ = 0;
  }

  /// Sends `query` on `fd` and waits up to `timeout_ms` for its reply; true
  /// if a positive answer with the query's id came back.
  bool query(int fd, const std::vector<std::uint8_t>& query, int timeout_ms) {
    if (::send(fd, query.data(), query.size(), 0) < 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    return read(fd, query[0], query[1]);
  }

  /// Reads every reply still queued; returns all positive answers counted.
  std::uint64_t drain() {
    for (const auto& s : sockets_) {
      if (s) read(s->get(), -1, -1);
    }
    return answers_;
  }

 private:
  bool read(int fd, int id_hi, int id_lo) {
    bool matched = false;
    std::uint8_t buf[2048];
    for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT)) >= 0;) {
      if (n < 12 || (buf[3] & 0x0f) != dnswire::kRcodeNoError) continue;
      ++answers_;
      matched = matched || (buf[0] == id_hi && buf[1] == id_lo);
    }
    return matched;
  }

  std::vector<std::unique_ptr<Fd>> sockets_;
  std::uint64_t answers_ = 0;
};

double p(const std::vector<float>& v, double q) {
  return quantile(std::vector<double>(v.begin(), v.end()), q);
}

/// A step judged by thirds (by due time), so one stall of the host does
/// not decide it: a third is valid when the generator kept up in it (lag
/// p99 within the bound), clean when it is valid and its p99 meets the SLO.
struct Thirds {
  int valid = 0;
  int clean = 0;
};

Thirds thirds(const StepStats& s) {
  std::vector<float> lat[3], lag[3];
  const auto third = [&s](float due_s) {
    return std::min(2, static_cast<int>(due_s / s.seconds * 3.0));
  };
  for (std::size_t i = 0; i < s.latency_us.size(); ++i) {
    lat[third(s.latency_due_s[i])].push_back(s.latency_us[i]);
  }
  for (std::size_t i = 0; i < s.lag_us.size(); ++i) lag[third(s.lag_due_s[i])].push_back(s.lag_us[i]);
  Thirds t;
  for (int w = 0; w < 3; ++w) {
    if (lag[w].empty() || p(lag[w], 0.99) > kLagBoundUs) continue;
    ++t.valid;
    if (!lat[w].empty() && p(lat[w], 0.99) <= kSloP99Us) ++t.clean;
  }
  return t;
}

/// The generator kept up for most of the step, so it measured the server.
bool valid(const StepStats& s) { return thirds(s).valid >= 2; }

/// A step meets the SLO when most thirds are clean, failures are within
/// bounds and the in-flight backlog did not grow over the step.
bool meets_slo(const StepStats& s) {
  return thirds(s).clean >= 2 && s.answered > 0 && s.failed_fraction() <= kSloFailedFraction &&
         s.inflight_end <= 2 * s.inflight_early + 64;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

/// One sweep step for the report: rate, verdict, p99, lag p99, failures
/// and in-flight growth.
std::string step_note(const StepStats& s, bool ok) {
  return fmt(s.rate / 1000) + (ok ? "k+" : "k-") + "(p99 " + fmt(p(s.latency_us, 0.99)) +
         " lag " + fmt(p(s.lag_us, 0.99)) + " f " + std::to_string(s.failed()) + " q " +
         std::to_string(s.inflight_early) + ">" + std::to_string(s.inflight_end) + ") ";
}

}  // namespace

int run_dnsd_workload(const Options& opt, Report& report) {
  if (opt.dnsd_path.empty()) throw std::invalid_argument("--dnsd=PATH is required");
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double S = opt.seconds;

  // ---- Site served: the paper's 7 servers at 20% heterogeneity ----
  const std::vector<double> caps = adattl::web::table2_cluster(20).absolute_capacities();
  std::vector<std::uint32_t> servers;
  std::string servers_arg, caps_arg;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    servers.push_back((10u << 24) | static_cast<std::uint32_t>(i + 1));
    servers_arg += (i ? "," : "") + std::string("10.0.0.") + std::to_string(i + 1);
    caps_arg += (i ? "," : "") + std::to_string(caps[i]);
  }
  const std::uint64_t daemon_seed = mix_seed(opt.seed, 1) % 1000000007ULL;
  const std::vector<std::string> args = {
      "--dnsd-port=0",       "--dnsd-shards=" + std::to_string(kShards),
      "--dnsd-batch=32",     "--dnsd-ecs=true",
      "--policy=DRR2-TTL/S_K", "--domains=" + std::to_string(kDomains),
      "--seed=" + std::to_string(daemon_seed), "--servers=" + servers_arg,
      "--capacities=" + caps_arg, "--stats-interval=0.05"};

  const QueryMix mix = make_mix(mix_seed(opt.seed, 2));
  std::vector<std::uint8_t> probe_query = mix.templates[0];
  Probes probes;

  // End-to-end figures are given at the host's nominal speed, scaled by
  // the host reference timed next to them (before each launch; before and
  // after each fixed-rate step, while no load runs).
  const auto nominal = [&report](double ref_s) {
    report.e2e["host.ref_ms"].push_back(ref_s * 1e3);
    return to_nominal(ref_s, kDaemonElasticity);
  };

  // ---- Set-up: launch until the port answers, several times ----
  std::unique_ptr<Daemon> daemon;
  const int launches = opt.tiny ? 2 : 25;
  for (int l = 0; l < launches; ++l) {
    if (daemon) daemon->stop();
    probes.reset();
    const double ref_s = host_reference_s();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.dnsd_path, args);
    daemon->wait_port(10.0);
    const int fd = probes.open(daemon->port());
    std::uint16_t id = 1;
    bool up = false;
    while (!up && seconds_since(t0) < 10.0) {
      probe_query[0] = static_cast<std::uint8_t>(id >> 8);
      probe_query[1] = static_cast<std::uint8_t>(id++ & 0xff);
      up = probes.query(fd, probe_query, 2);
    }
    if (!up) throw std::runtime_error("adattl_dnsd never answered");
    report.e2e["setup_s"].push_back(seconds_since(t0) * nominal(ref_s));
  }

  // ---- One generator socket per shard: probe which shard each lands on ----
  std::vector<std::unique_ptr<Fd>> shard_socket(kShards);
  int tries = 0;
  for (; tries < 16; ++tries) {
    if (std::all_of(shard_socket.begin(), shard_socket.end(), [](auto& s) { return s != nullptr; })) {
      break;
    }
    const int fd = probes.open(daemon->port());
    daemon->wait_blocks(1);
    const std::vector<ShardLine> before = daemon->shards();
    for (int q = 0; q < 16; ++q) {
      probe_query[0] = 0xff;
      probe_query[1] = static_cast<std::uint8_t>(q);
      probes.query(fd, probe_query, 50);
    }
    daemon->wait_blocks(2);
    for (int s = 0; s < kShards; ++s) {
      if (daemon->shards()[s].rx - before[s].rx >= 16 && shard_socket[s] == nullptr) {
        shard_socket[s] = probes.take(fd);
        break;
      }
    }
  }
  report.info["shard_probes"] = std::to_string(tries);
  std::vector<int> fds;
  for (int s = 0; s < kShards; ++s) {
    if (!shard_socket[s]) {
      throw std::runtime_error("no generator socket found for daemon shard " + std::to_string(s));
    }
    fds.push_back(shard_socket[s]->get());
  }

  GenConfig gc;
  gc.threads = std::max(1, std::min(kShards, nproc - 1));
  gc.socket_fds = fds;
  gc.templates = mix.templates;
  gc.mix = mix.order;
  std::vector<std::uint32_t> allowed = servers;
  if (opt.corrupt) allowed.erase(allowed.begin());  // self-test: answers with server 0 are "wrong"
  const ReplyVerifier verifier(allowed);
  gc.verify = [&verifier](const std::uint8_t* d, std::size_t n) { return verifier(d, n); };
  OpenLoopGenerator gen(gc);
  report.info["generator_threads"] = std::to_string(gc.threads);

  const double fixed_rate = opt.tiny ? 5000.0 : 20000.0;
  const double low_rate = fixed_rate / 4.0;
  const auto pump = [&daemon] { daemon->pump(); };

  // ---- Warm-up, then the fixed rate in five steps (the repetitions) ----
  // Each step gives one figure of answers per daemon CPU-second (the
  // daemon's own CPU time, read from /proc between steps, so it holds
  // steady however much CPU the host leaves free) and two of answer p50
  // (per half step).
  gen.run_step(fixed_rate, opt.tiny ? 0.1 : 0.3, pump);
  const double step_fixed_s = (opt.tiny ? 0.3 : 0.5 * S) / 5;
  StepStats fixed;
  double fixed_cpu_s = 0.0;
  double ref_before_s = host_reference_s();
  for (int k = 0; k < 5; ++k) {
    const double c0 = process_cpu_s(daemon->pid());
    const StepStats s = gen.run_step(fixed_rate, step_fixed_s, pump);
    const double cpu = process_cpu_s(daemon->pid()) - c0;
    const double ref_after_s = host_reference_s();
    const double speed = nominal((ref_before_s + ref_after_s) / 2);
    ref_before_s = ref_after_s;
    fixed_cpu_s += cpu;
    report.e2e["throughput_per_s"].push_back(static_cast<double>(s.answered) / cpu / speed);
    std::vector<double> halves[2];
    for (std::size_t i = 0; i < s.latency_us.size(); ++i) {
      halves[s.latency_due_s[i] * 2 < step_fixed_s ? 0 : 1].push_back(s.latency_us[i]);
    }
    for (const auto& h : halves) {
      if (!h.empty()) report.e2e["latency_us"].push_back(quantile(h, 0.5) * speed);
    }
    fixed.add(s);
  }
  const StepStats low = gen.run_step(low_rate, opt.tiny ? 0.2 : 0.1 * S, pump);

  // ---- Traced runs: search for the highest rate meeting the SLO ----
  // Geometric ladder up from 100k/s by 1.3x until a step fails, then three
  // bisections between the last pass and the first fail (about 3%
  // resolution). It is a per-layer figure: on a shared host the knee moves
  // with the CPU the neighbours leave, more than a bound could allow.
  const double step_s = opt.tiny ? 0.1 : 0.3;
  std::vector<std::string> trial_log;
  std::uint64_t invalid_steps = 0;
  // A step the generator fell behind on measured the generator, not the
  // daemon: it is repeated (twice at most) instead of counted as a miss.
  const auto passes = [&](double rate, std::string& log) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const StepStats s = gen.run_step(rate, step_s, pump);
      const bool ok = meets_slo(s);
      log += step_note(s, ok);
      if (valid(s)) return ok;
      ++invalid_steps;
    }
    return false;
  };
  const auto trial = [&](double first_rung) {
    double pass = 0.0;
    double fail = 0.0;
    std::string log;
    for (double r = first_rung; r < 4e6; r *= 1.3) {
      if (!passes(r, log)) {
        fail = r;
        break;
      }
      pass = r;
      if (opt.tiny && r > 30000.0) break;
    }
    for (double r = fail / 1.3; pass == 0.0 && r >= 1000.0; r /= 1.3) {  // first rung failed
      (passes(r, log) ? pass : fail) = r;
    }
    for (int b = 0; b < (opt.tiny ? 1 : 3) && pass > 0.0 && fail > 0.0; ++b) {
      const double m = std::sqrt(pass * fail);
      (passes(m, log) ? pass : fail) = m;
    }
    trial_log.push_back(log);
    return pass;
  };
  const double max_qps = opt.trace ? trial(opt.tiny ? 20000.0 : 100000.0) : 0.0;
  if (opt.trace) report.info["sweep"] = trial_log[0];
  report.info["sweep_invalid_steps"] = std::to_string(invalid_steps);

  // ---- Stop the daemon; its final stats close the books ----
  report.e2e["peak_rss_mib"].push_back(peak_rss_mib(daemon->pid()));
  daemon->stop();
  gen.drain_late();
  std::vector<ShardLine> final_stats = daemon->shards();
  ShardLine total;
  double max_rx = 0.0;
  for (const ShardLine& s : final_stats) {
    total.rx += s.rx;
    total.answered += s.answered;
    total.refused += s.refused;
    total.kernel_drops += s.kernel_drops;
    total.batches += s.batches;
    total.decisions += s.decisions;
    max_rx = std::max(max_rx, static_cast<double>(s.rx));
  }

  // ---- Output checks ----
  const std::uint64_t received = gen.answers_received() + probes.drain();
  report.check("every reply parses and carries a configured address", gen.wrong_total() == 0,
               std::to_string(gen.wrong_total()) + " wrong replies");
  report.check("daemon decisions == positive answers sent",
               total.decisions == total.answered,
               std::to_string(total.decisions) + " vs " + std::to_string(total.answered));
  report.check("answers received (+ socket drops) == daemon answers",
               received + gen.socket_drops() == total.answered,
               std::to_string(received) + " + " + std::to_string(gen.socket_drops()) + " vs " +
                   std::to_string(total.answered));

  report.attempted = fixed.due + low.due;
  report.failed = fixed.failed() + low.failed();
  report.info["max_qps_at_slo"] = fmt(max_qps);
  report.info["fixed_rate_qps"] = fmt(fixed_rate);
  report.info["low_rate_qps"] = fmt(low_rate);
  report.info["fixed_p50_us"] = fmt(p(fixed.latency_us, 0.5));
  report.info["fixed_p99_us"] = fmt(p(fixed.latency_us, 0.99));
  report.info["fixed_samples"] = std::to_string(fixed.latency_us.size());
  report.info["low_p50_us"] = fmt(p(low.latency_us, 0.5));
  report.info["low_samples"] = std::to_string(low.latency_us.size());
  report.info["fixed_lag_p99_us"] = fmt(p(fixed.lag_us, 0.99));
  report.info["low_lag_p99_us"] = fmt(p(low.lag_us, 0.99));
  report.info["slo"] = "p99 <= 1000 us, failed <= 0.1%, no backlog growth, lag p99 <= 200 us";

  if (!opt.trace) return 0;

  auto& L = report.layer;
  L["dnsd.answers"] = static_cast<double>(total.answered);
  L["dnsd.kernel_drops"] = static_cast<double>(total.kernel_drops);
  L["dnsd.batch_fill"] = total.batches ? static_cast<double>(total.rx) / total.batches : 0.0;
  L["dnsd.shard_imbalance"] =
      total.rx ? max_rx * static_cast<double>(final_stats.size()) / total.rx : 0.0;
  L["dnsd.cpu_us_per_answer"] = fixed_cpu_s * 1e6 / static_cast<double>(fixed.answered);
  L["gen.sent"] = static_cast<double>(fixed.sent + low.sent);
  L["gen.timeouts"] = static_cast<double>(fixed.timeouts + low.timeouts);
  L["gen.lag_us_p99"] = p(fixed.lag_us, 0.99);
  L["gen.answer_p99_us"] = p(fixed.latency_us, 0.99);
  L["gen.answer_samples"] = static_cast<double>(fixed.latency_us.size());
  L["gen.answer_p50_us_low_rate"] = p(low.latency_us, 0.5);
  L["gen.max_qps_at_slo"] = max_qps;
  L["sched.decisions"] = static_cast<double>(total.decisions);
  L["host.ref_ms"] = quantile(report.e2e["host.ref_ms"], 0.5);
  // Every instrument of this run (stats lines, /proc reads between steps,
  // the sweep and the replays after the fixed and low phases) sits outside
  // the measured intervals: traced and untraced phases are the same.
  L["trace.overhead_ratio"] = 0.0;
  L["failed_fraction"] = static_cast<double>(report.failed) / static_cast<double>(report.attempted);

  // ---- Socket-free replays of the generator's query mix ----
  dnswire::DaemonConfig dc;
  dc.server_ipv4 = servers;
  dc.capacities = caps;
  dc.policy = "DRR2-TTL/S_K";
  dc.num_domains = kDomains;
  dc.seed = daemon_seed;
  dc.ecs_enabled = true;
  {
    dnswire::ShardCore core(dc, 0);
    const std::size_t n = 200000;
    std::vector<std::uint8_t> q;
    std::uint64_t bytes = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      q = mix.templates[mix.order[i % mix.order.size()]];
      q[0] = static_cast<std::uint8_t>(i >> 8);
      q[1] = static_cast<std::uint8_t>(i & 0xff);
      bytes += core.handle(q.data(), q.size(), 0x7f000001u, 40000).size();
    }
    L["dnsd.core_ns_per_query"] = seconds_since(t0) * 1e9 / static_cast<double>(n);
    replay_sink = bytes;
    std::uint64_t good = 0;
    for (const auto& t : mix.templates) {
      const auto& reply = core.handle(t.data(), t.size(), 0x7f000001u, 40000);
      good += verifier(reply.data(), reply.size()) == Verdict::kAnswer ? 1 : 0;
    }
    report.check("ShardCore replay answers every query variant", good == mix.templates.size(),
                 std::to_string(good) + " of " + std::to_string(mix.templates.size()));
  }
  {
    std::vector<adattl::web::DomainId> domains;
    for (std::uint32_t v : mix.order) {
      const auto& t = mix.templates[v];
      domains.push_back(dnswire::derive_domain_key(t.data(), t.size(), 0x7f000001u, 40000,
                                                   kDomains, true));
    }
    adattl::core::AlarmRegistry alarms(static_cast<int>(servers.size()), 0.9);
    adattl::core::SchedulerFactoryConfig fc;
    fc.capacities = caps;
    fc.initial_weights = adattl::sim::ZipfDistribution(kDomains, 1.0).probabilities();
    fc.class_threshold = 1.0 / kDomains;
    L["sched.ns_per_decision"] = replay_schedule(dc.policy, fc, alarms, domains, daemon_seed);
  }
  return 0;
}

}  // namespace perfbench
