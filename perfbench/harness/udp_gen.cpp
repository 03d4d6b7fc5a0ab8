#include "udp_gen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace perfbench {
namespace {

constexpr int kBatch = 32;
constexpr int kIds = 65536;
constexpr std::size_t kMaxReply = 2048;
constexpr std::int64_t kSpinNs = 60000;  ///< spin this close to a due time

std::int64_t to_ns(const timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return to_ns(ts);
}

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

/// CLOCK_REALTIME − CLOCK_MONOTONIC: converts the kernel's receive
/// timestamps (realtime) onto the monotonic clock the schedule runs on.
std::int64_t realtime_offset_ns() {
  const std::int64_t a = now_ns();
  const std::int64_t r = clock_ns(CLOCK_REALTIME);
  const std::int64_t b = now_ns();
  return r - (a + b) / 2;
}

/// One outstanding query, indexed by its DNS id on its socket.
struct Slot {
  std::int64_t due_ns = 0;
  bool outstanding = false;
};

/// Send order of ids, so timeouts expire oldest first. `due_ns` tells a
/// live entry from one whose id was since reused by a newer query.
struct Sent {
  std::uint16_t id = 0;
  std::int64_t due_ns = 0;
};

}  // namespace

struct OpenLoopGenerator::Thread {
  struct Socket {
    int fd = -1;
    std::vector<Slot> slots = std::vector<Slot>(kIds);
    std::vector<Sent> fifo = std::vector<Sent>(kIds);
    std::size_t head = 0;  ///< oldest fifo entry
    std::size_t size = 0;  ///< live fifo entries
    std::uint16_t next_id = 0;
    std::uint64_t outstanding = 0;
    std::uint32_t kernel_drops = 0;  ///< SO_RXQ_OVFL, cumulative
    // Pending transmit batch.
    std::vector<std::vector<std::uint8_t>> tx = std::vector<std::vector<std::uint8_t>>(kBatch);
    std::int64_t tx_due[kBatch] = {};
    int tx_count = 0;
  };

  std::vector<Socket> sockets;
  std::uint64_t mix_pos = 0;
  std::uint64_t answers_total = 0;
  std::uint64_t wrong_total = 0;
  StepStats stats;
  std::int64_t step_start = 0;

  // Receive plumbing, reused for every recvmmsg.
  std::vector<std::uint8_t> rx_buf = std::vector<std::uint8_t>(kBatch * kMaxReply);
  iovec rx_iov[kBatch] = {};
  mmsghdr rx_hdr[kBatch] = {};
  alignas(cmsghdr) char rx_ctl[kBatch][CMSG_SPACE(sizeof(std::uint32_t)) +
                                      CMSG_SPACE(sizeof(timespec))] = {};
  std::int64_t realtime_offset = realtime_offset_ns();
  iovec tx_iov[kBatch] = {};
  mmsghdr tx_hdr[kBatch] = {};

  std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const Socket& s : sockets) n += s.outstanding;
    return n;
  }

  void queue_query(const GenConfig& cfg, Socket& s, std::int64_t due) {
    const std::uint32_t variant = cfg.mix[mix_pos++ % cfg.mix.size()];
    const std::uint16_t id = s.next_id++;
    Slot& slot = s.slots[id];
    if (slot.outstanding) {  // id wrapped before the old query expired
      slot.outstanding = false;
      --s.outstanding;
      ++stats.timeouts;
    }
    slot = Slot{due, true};
    ++s.outstanding;
    s.fifo[(s.head + s.size) % kIds] = Sent{id, due};
    ++s.size;
    std::vector<std::uint8_t>& buf = s.tx[static_cast<std::size_t>(s.tx_count)];
    buf = cfg.templates[variant];
    buf[0] = static_cast<std::uint8_t>(id >> 8);
    buf[1] = static_cast<std::uint8_t>(id & 0xff);
    s.tx_due[s.tx_count++] = due;
    ++stats.due;
  }

  void flush(Socket& s) {
    if (s.tx_count == 0) return;
    for (int i = 0; i < s.tx_count; ++i) {
      tx_iov[i].iov_base = s.tx[static_cast<std::size_t>(i)].data();
      tx_iov[i].iov_len = s.tx[static_cast<std::size_t>(i)].size();
      std::memset(&tx_hdr[i], 0, sizeof(tx_hdr[i]));
      tx_hdr[i].msg_hdr.msg_iov = &tx_iov[i];
      tx_hdr[i].msg_hdr.msg_iovlen = 1;
    }
    int done = 0;
    while (done < s.tx_count) {
      const int out = ::sendmmsg(s.fd, tx_hdr + done, static_cast<unsigned>(s.tx_count - done), 0);
      if (out <= 0) break;
      const std::int64_t t = now_ns();
      for (int i = done; i < done + out; ++i) {
        stats.lag_us.push_back(static_cast<float>((t - s.tx_due[i]) * 1e-3));
        stats.lag_due_s.push_back(static_cast<float>((s.tx_due[i] - step_start) * 1e-9));
      }
      stats.sent += static_cast<std::uint64_t>(out);
      done += out;
    }
    for (int i = done; i < s.tx_count; ++i) {  // the kernel refused these
      const auto* b = s.tx[static_cast<std::size_t>(i)].data();
      Slot& slot = s.slots[static_cast<std::uint16_t>(b[0] << 8 | b[1])];
      slot.outstanding = false;
      --s.outstanding;
      ++stats.send_failed;
    }
    s.tx_count = 0;
  }

  void on_reply(const GenConfig& cfg, Socket& s, const std::uint8_t* buf, std::size_t len,
                std::int64_t t_rx, std::int64_t timeout_ns) {
    if (len < 12) {
      ++stats.wrong;
      ++wrong_total;
      return;
    }
    Slot& slot = s.slots[static_cast<std::uint16_t>(buf[0] << 8 | buf[1])];
    const bool on_time = slot.outstanding && t_rx - slot.due_ns <= timeout_ns;
    const Verdict v = cfg.verify(buf, len);
    if (v == Verdict::kAnswer) ++answers_total;
    if (v == Verdict::kWrong) {
      ++stats.wrong;
      ++wrong_total;
    }
    if (!slot.outstanding) return;  // its query already timed out
    slot.outstanding = false;
    --s.outstanding;
    if (!on_time) {
      ++stats.timeouts;
    } else if (v == Verdict::kAnswer) {
      ++stats.answered;
      stats.latency_us.push_back(static_cast<float>((t_rx - slot.due_ns) * 1e-3));
      stats.latency_due_s.push_back(static_cast<float>((slot.due_ns - step_start) * 1e-9));
    } else if (v == Verdict::kRefused) {
      ++stats.refused;
    }
  }

  void receive(const GenConfig& cfg, std::int64_t timeout_ns) {
    for (Socket& s : sockets) {
      for (;;) {
        for (int i = 0; i < kBatch; ++i) {
          rx_iov[i].iov_base = rx_buf.data() + static_cast<std::size_t>(i) * kMaxReply;
          rx_iov[i].iov_len = kMaxReply;
          std::memset(&rx_hdr[i], 0, sizeof(rx_hdr[i]));
          rx_hdr[i].msg_hdr.msg_iov = &rx_iov[i];
          rx_hdr[i].msg_hdr.msg_iovlen = 1;
          rx_hdr[i].msg_hdr.msg_control = rx_ctl[i];
          rx_hdr[i].msg_hdr.msg_controllen = sizeof(rx_ctl[i]);
        }
        const int got = ::recvmmsg(s.fd, rx_hdr, kBatch, MSG_DONTWAIT, nullptr);
        if (got <= 0) break;
        const std::int64_t read_at = now_ns();
        for (int i = 0; i < got; ++i) {
          // Arrival time is the kernel's receive timestamp, so a reply is
          // timed when it reached the socket, not when this thread got to it.
          std::int64_t t = read_at;
          for (cmsghdr* c = CMSG_FIRSTHDR(&rx_hdr[i].msg_hdr); c != nullptr;
               c = CMSG_NXTHDR(&rx_hdr[i].msg_hdr, c)) {
            if (c->cmsg_level != SOL_SOCKET) continue;
            if (c->cmsg_type == SO_RXQ_OVFL) {
              std::memcpy(&s.kernel_drops, CMSG_DATA(c), sizeof(s.kernel_drops));
            } else if (c->cmsg_type == SCM_TIMESTAMPNS) {
              timespec ts{};
              std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
              t = std::min(read_at, to_ns(ts) - realtime_offset);
            }
          }
          on_reply(cfg, s, static_cast<const std::uint8_t*>(rx_iov[i].iov_base),
                   rx_hdr[i].msg_len, t, timeout_ns);
        }
        if (got < kBatch) break;
      }
    }
  }

  /// Fails every query whose timeout has passed by `now`.
  void expire(std::int64_t now, std::int64_t timeout_ns) {
    for (Socket& s : sockets) {
      while (s.size > 0) {
        const Sent& e = s.fifo[s.head];
        if (e.due_ns + timeout_ns > now) break;
        Slot& slot = s.slots[e.id];
        if (slot.outstanding && slot.due_ns == e.due_ns) {
          slot.outstanding = false;
          --s.outstanding;
          ++stats.timeouts;
        }
        s.head = (s.head + 1) % kIds;
        --s.size;
      }
    }
  }

  /// Waits for a reply on any socket, at most `ns`.
  void wait_readable(std::int64_t ns) {
    pollfd fds[16];
    const std::size_t n = std::min<std::size_t>(sockets.size(), 16);
    for (std::size_t i = 0; i < n; ++i) fds[i] = pollfd{sockets[i].fd, POLLIN, 0};
    const timespec ts{static_cast<time_t>(ns / 1000000000LL), static_cast<long>(ns % 1000000000LL)};
    ::ppoll(fds, n, &ts, nullptr);
  }

  void run_step(const GenConfig& cfg, double rate, double seconds, std::int64_t start) {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // wake within ~1 µs of the asked time
    step_start = start;
    const std::int64_t timeout_ns = static_cast<std::int64_t>(cfg.timeout_s * 1e9);
    const auto n_due = static_cast<std::uint64_t>(std::floor(rate * seconds));
    const double gap_ns = 1e9 / rate;
    const std::uint64_t quarter = n_due / 4;
    const auto due_of = [&](std::uint64_t k) {
      return start + static_cast<std::int64_t>(static_cast<double>(k) * gap_ns);
    };
    std::uint64_t k = 0;
    bool quarter_seen = false;
    while (k < n_due) {
      std::int64_t now = now_ns();
      if (due_of(k) <= now) {
        while (k < n_due && due_of(k) <= now) {
          Socket& s = sockets[k % sockets.size()];
          queue_query(cfg, s, due_of(k));
          ++k;
          if (s.tx_count == kBatch) flush(s);
        }
        for (Socket& s : sockets) flush(s);
        if (!quarter_seen && k >= quarter) {
          stats.inflight_early = outstanding();
          quarter_seen = true;
        }
      }
      receive(cfg, timeout_ns);
      now = now_ns();
      expire(now, timeout_ns);
      if (k < n_due) {
        // Sleep until the next due time, waking for replies. A long sleep
        // can overshoot, so one ends short of the due time and spins the
        // rest; short gaps (high rates) just sleep, leaving the CPUs to
        // the server. Never block past a due time.
        const std::int64_t wait = due_of(k) - now;
        if (wait > kSpinNs) {
          wait_readable(wait - kSpinNs);
          while (now_ns() < due_of(k)) {
          }
        } else if (wait > 0) {
          wait_readable(wait);
        }
      }
    }
    stats.inflight_end = outstanding();
    const std::int64_t deadline = (n_due ? due_of(n_due - 1) : start) + timeout_ns + 1000000;
    for (std::int64_t now = now_ns(); outstanding() > 0 && now < deadline; now = now_ns()) {
      wait_readable(std::min<std::int64_t>(1000000, deadline - now));
      receive(cfg, timeout_ns);
      expire(now_ns(), timeout_ns);
    }
    expire(deadline + timeout_ns, timeout_ns);
  }
};

OpenLoopGenerator::OpenLoopGenerator(GenConfig cfg) : cfg_(std::move(cfg)) {
  const int threads = std::max(1, std::min<int>(cfg_.threads, static_cast<int>(cfg_.socket_fds.size())));
  for (int t = 0; t < threads; ++t) threads_.push_back(std::make_unique<Thread>());
  for (std::size_t i = 0; i < cfg_.socket_fds.size(); ++i) {
    const int one = 1;
    ::setsockopt(cfg_.socket_fds[i], SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
    ::setsockopt(cfg_.socket_fds[i], SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
    threads_[i % threads_.size()]->sockets.emplace_back();
    threads_[i % threads_.size()]->sockets.back().fd = cfg_.socket_fds[i];
  }
  // Stagger each thread's position in the query mix.
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    threads_[t]->mix_pos = t * cfg_.mix.size() / threads_.size();
  }
}

OpenLoopGenerator::~OpenLoopGenerator() = default;

StepStats OpenLoopGenerator::run_step(double rate, double seconds,
                                      const std::function<void()>& while_running) {
  const double per_thread = rate / static_cast<double>(threads_.size());
  const std::int64_t start = now_ns() + 2000000;  // let every thread get going
  std::atomic<int> running{static_cast<int>(threads_.size())};
  std::vector<std::thread> workers;
  for (auto& t : threads_) {
    t->stats = StepStats{};
    // Offset each thread by a fraction of its gap so the merged schedule
    // is evenly spaced rather than T queries at once.
    const auto offset = static_cast<std::int64_t>(
        1e9 / rate * static_cast<double>(workers.size()));
    workers.emplace_back([this, &t, &running, per_thread, seconds, start, offset] {
      t->run_step(cfg_, per_thread, seconds, start + offset);
      running.fetch_sub(1);
    });
  }
  while (while_running && running.load() > 0) {
    while_running();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& w : workers) w.join();

  StepStats out;
  out.rate = rate;
  out.seconds = seconds;
  for (const auto& t : threads_) out.add(t->stats);
  return out;
}

void StepStats::add(const StepStats& s) {
  due += s.due;
  sent += s.sent;
  send_failed += s.send_failed;
  answered += s.answered;
  refused += s.refused;
  wrong += s.wrong;
  timeouts += s.timeouts;
  inflight_early += s.inflight_early;
  inflight_end += s.inflight_end;
  latency_us.insert(latency_us.end(), s.latency_us.begin(), s.latency_us.end());
  latency_due_s.insert(latency_due_s.end(), s.latency_due_s.begin(), s.latency_due_s.end());
  lag_us.insert(lag_us.end(), s.lag_us.begin(), s.lag_us.end());
  lag_due_s.insert(lag_due_s.end(), s.lag_due_s.begin(), s.lag_due_s.end());
}

void OpenLoopGenerator::drain_late() {
  for (auto& t : threads_) t->receive(cfg_, static_cast<std::int64_t>(cfg_.timeout_s * 1e9));
}

std::uint64_t OpenLoopGenerator::answers_received() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->answers_total;
  return n;
}

std::uint64_t OpenLoopGenerator::socket_drops() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) {
    for (const auto& s : t->sockets) n += s.kernel_drops;
  }
  return n;
}

std::uint64_t OpenLoopGenerator::wrong_total() const {
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->wrong_total;
  return n;
}

}  // namespace perfbench
