#include "sim/log_ring.h"

#include <chrono>
#include <cmath>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace adattl::sim {
namespace {

// Spins of a consumer waiting on a chunk the helper is producing, before
// it yields the core instead.
constexpr int kConsumerSpins = 256;
// How long an idle helper polls the rings, yielding its core between
// passes, before it parks: a fifth of the time the paper's run takes to
// draw half a ring from its busiest server.
constexpr auto kHelperPoll = std::chrono::microseconds(20);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

std::uint32_t LogRing::take_more() {
  seen_head_ = head_.load(std::memory_order_acquire);
  if (seen_head_ != read_) return seen_head_ - read_;
  // Empty: the producer may now use the whole ring.
  publish_tail();
  for (int spins = 0;; ++spins) {
    if (!claimed_.exchange(true, std::memory_order_acquire)) {
      std::uint32_t head = head_.load(std::memory_order_relaxed);
      if (head == read_) {
        produce(head);
        head += kChunk;
        head_.store(head, std::memory_order_release);
        ++loop_chunks_;
      }
      claimed_.store(false, std::memory_order_release);
      seen_head_ = head;
      return head - read_;
    }
    // The helper holds the stream for one chunk, which it publishes
    // before it lets go.
    seen_head_ = head_.load(std::memory_order_acquire);
    if (seen_head_ != read_) return seen_head_ - read_;
    if (spins < kConsumerSpins) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void LogRing::publish_tail() {
  tail_.store(read_, std::memory_order_release);
  published_tail_ = read_;
  // A helper that parks as this index is stored may miss it; then the
  // next publish that leaves a ring at most half full wakes it, and an
  // empty ring publishes before its consumer draws a chunk itself.
  if (set_->parked() && head_.load(std::memory_order_acquire) - read_ <= set_->capacity() / 2) {
    set_->wake();
  }
}

void LogRing::produce(std::uint32_t head) {
  // head is a multiple of kChunk, and so is the capacity: a chunk never
  // wraps.
  double* out = slots_ + (head & mask_);
  for (std::uint32_t i = 0; i < kChunk; ++i) {
    double u;
    do {
      u = rng_.next_double();
    } while (u <= 0.0);  // Rng::exponential's rejection
    out[i] = std::log(u);
  }
}

std::uint32_t LogRing::top_up() {
  const std::uint32_t capacity = mask_ + 1;
  std::uint32_t chunks = 0;
  for (;;) {
    const std::uint32_t tail = tail_.load(std::memory_order_acquire);
    // A consumer producing its own chunk has the stream: come back later.
    if (claimed_.exchange(true, std::memory_order_acquire)) break;
    const std::uint32_t head = head_.load(std::memory_order_relaxed);
    const bool room = capacity - (head - tail) >= kChunk;
    if (room) {
      produce(head);
      head_.store(head + kChunk, std::memory_order_release);
      ++chunks;
    }
    claimed_.store(false, std::memory_order_release);
    if (!room) break;
  }
  helper_chunks_ += chunks;
  return chunks;
}

bool LogRing::wants_refill() const {
  // tail first: a head read after it is at least as new, so the
  // difference never wraps.
  const std::uint32_t tail = tail_.load(std::memory_order_acquire);
  return head_.load(std::memory_order_acquire) - tail <= (mask_ + 1) / 2;
}

LogRings::LogRings(std::size_t count, std::uint32_t capacity)
    : count_(count),
      capacity_(capacity),
      rings_(new LogRing[count]),
      values_(new double[count * capacity]) {
  if (capacity < 2 * LogRing::kChunk || (capacity & (capacity - 1)) != 0) {
    throw std::invalid_argument("LogRings: capacity must be a power of two of >= 2 chunks");
  }
  for (std::size_t i = 0; i < count; ++i) {
    rings_[i].slots_ = values_.get() + i * capacity;
    rings_[i].set_ = this;
    rings_[i].mask_ = capacity - 1;
  }
}

void LogRings::serve() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point idle_since{};
  bool idle = false;
  while (!stop_.load(std::memory_order_acquire)) {
    bool worked = false;
    for (std::size_t i = 0; i < count_; ++i) {
      if (rings_[i].wants_refill() && rings_[i].top_up() > 0) worked = true;
    }
    if (worked) {
      idle = false;
      continue;
    }
    if (!idle) {
      idle = true;
      idle_since = Clock::now();
    }
    if (Clock::now() - idle_since < kHelperPoll) {
      std::this_thread::yield();
      continue;
    }
    // Park. The epoch is read before parked_ is set, so a wake after this
    // point is never lost; the rings are checked again after it is set.
    const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
    parked_.store(true, std::memory_order_seq_cst);
    bool wanted = stop_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < count_ && !wanted; ++i) wanted = rings_[i].wants_refill();
    if (!wanted) epoch_.wait(epoch, std::memory_order_acquire);
    parked_.store(false, std::memory_order_relaxed);
    idle = false;
  }
}

void LogRings::wake() {
  if (parked_.exchange(false, std::memory_order_seq_cst)) {
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_one();
  }
}

void LogRings::stop() {
  stop_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
}

// The helper should take a core the event loop leaves idle, never the
// loop's own. On a 4-vCPU KVM guest running Linux 6.18 a new thread often
// started on its creator's core and stayed there for hundreds of
// milliseconds, sharing it with the event loop, and waking it from a park
// did not move it (DESIGN.md §18). So the helper may run on every core
// but the one its creator, the event loop, is on when it is made. The
// mask is set as soon as the thread exists, before a helper queued behind
// the running event loop gets to run, so it starts on another core.
LogRings::Helper::Helper(LogRings& rings) : rings_(rings), thread_([&rings] { rings.serve(); }) {
#if defined(__linux__)
  cpu_set_t others;
  const int loop_core = sched_getcpu();
  if (loop_core >= 0 && sched_getaffinity(0, sizeof others, &others) == 0) {
    CPU_CLR(loop_core, &others);
    if (CPU_COUNT(&others) > 0) {
      pthread_setaffinity_np(thread_.native_handle(), sizeof others, &others);
    }
  }
#endif
}

LogRings::Helper::~Helper() {
  rings_.stop();
  thread_.join();
}

std::uint64_t LogRings::loop_chunks() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < count_; ++i) n += rings_[i].loop_chunks();
  return n;
}

std::uint64_t LogRings::helper_chunks() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < count_; ++i) n += rings_[i].helper_chunks();
  return n;
}

}  // namespace adattl::sim
