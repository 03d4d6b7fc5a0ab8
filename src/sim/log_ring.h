#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>

#include "sim/random.h"

namespace adattl::sim {

class LogRings;

/// One stream's std::log(u) draws, computed ahead into a ring, so that an
/// Erlang variate costs its consumer one multiply and one add per stage.
///
/// The ring owns the stream from start() on. Its values are the logs
/// Rng::exponential takes, in stream order: next_double() with the u <= 0
/// rejection, then std::log(u). erlang(k, m) sums -(m / k) * L over the
/// next k of them from 0.0, as Rng::erlang does, so it returns
/// Rng::erlang(k, m)'s value bit for bit, whoever produced the values.
///
/// One thread, the consumer, calls erlang(). Values are produced a chunk
/// at a time by whichever side holds the stream's claim flag: the helper
/// thread of the ring's set (LogRings::serve) or, when the ring holds
/// fewer values than it needs, the consumer itself, so the consumer never
/// waits for the helper to start. Each side publishes its index once per
/// chunk. Rings live in a LogRings; they are neither copied nor moved.
class alignas(64) LogRing {
 public:
  /// Values produced per claim, and the consumer's publishing period.
  static constexpr std::uint32_t kChunk = 64;

  LogRing() = default;
  LogRing(const LogRing&) = delete;
  LogRing& operator=(const LogRing&) = delete;

  /// Hands the ring the stream `rng` (its state, copied); call before any
  /// erlang() and before the set's helper starts.
  void start(const Rng& rng) { rng_ = rng; }

  /// Erlang(k, mean_total) from the next k values (consumer only). Throws
  /// std::invalid_argument as Rng::erlang does.
  double erlang(int k, double mean_total) {
    if (k <= 0) throw std::invalid_argument("erlang: k must be >= 1");
    const double stage_mean = mean_total / k;
    if (stage_mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
    double sum = 0.0;
    auto left = static_cast<std::uint32_t>(k);
    for (;;) {
      std::uint32_t ready = seen_head_ - read_;
      if (ready == 0) ready = take_more();
      const std::uint32_t n = ready < left ? ready : left;
      for (std::uint32_t i = 0; i < n; ++i) sum += -stage_mean * slots_[(read_ + i) & mask_];
      read_ += n;
      left -= n;
      if (left == 0) break;
    }
    if (read_ - published_tail_ >= kChunk) publish_tail();
    // The next draw's values were written on the helper's core: fetch
    // the lines they start in (a draw reads up to 15, so up to three
    // lines) while the event loop does other work.
    __builtin_prefetch(slots_ + (read_ & mask_));
    __builtin_prefetch(slots_ + ((read_ + 8) & mask_));
    __builtin_prefetch(slots_ + ((read_ + 16) & mask_));
    return sum;
  }

  /// Chunks the consumer produced itself, and chunks the helper produced.
  /// Read them when neither side is running.
  std::uint64_t loop_chunks() const { return loop_chunks_; }
  std::uint64_t helper_chunks() const { return helper_chunks_; }

 private:
  friend class LogRings;

  /// Consumer: more values, from the producer or made here. Returns how
  /// many are ready (at least one).
  std::uint32_t take_more();
  /// Consumer: makes the values read so far free for the producer, and
  /// wakes a parked helper if that leaves the ring at most half full.
  void publish_tail();
  /// Producer (the claim holder): the chunk of values at `head`.
  void produce(std::uint32_t head);
  /// Helper: fills the ring with whole chunks while the stream is free.
  /// Returns the chunks it produced.
  std::uint32_t top_up();
  /// Helper: whether the ring is at most half full by the consumer's last
  /// published index.
  bool wants_refill() const;

  // Set by LogRings, then only read by both sides.
  double* slots_ = nullptr;
  LogRings* set_ = nullptr;
  std::uint32_t mask_ = 0;

  // The consumer's line: no other thread touches it while a run draws,
  // so its stores never wait on another core.
  alignas(64) std::uint32_t read_ = 0;  // next value to read
  std::uint32_t seen_head_ = 0;        // head as the consumer last loaded it
  std::uint32_t published_tail_ = 0;   // tail_ as the consumer last stored it
  std::uint64_t loop_chunks_ = 0;

  // The claim holder's line: the stream and the values written so far.
  alignas(64) std::atomic<std::uint32_t> head_{0};
  std::atomic<bool> claimed_{false};
  Rng rng_{0};
  std::uint64_t helper_chunks_ = 0;  // written by the helper only

  // Written by the consumer, read by the producer.
  alignas(64) std::atomic<std::uint32_t> tail_{0};
};

/// The rings of one run, and the parking spot of the one helper thread
/// that keeps them filled. The values of every ring live in one
/// allocation.
class LogRings {
 public:
  /// `count` rings of `capacity` values each: a power of two of at least
  /// two chunks.
  LogRings(std::size_t count, std::uint32_t capacity);
  LogRings(const LogRings&) = delete;
  LogRings& operator=(const LogRings&) = delete;

  std::uint32_t capacity() const { return capacity_; }
  LogRing& operator[](std::size_t i) { return rings_[i]; }

  /// The helper loop, on the calling thread, until stop(): refills every
  /// ring that is at most half full, and when a pass finds none, polls for
  /// a bounded time, then parks until a consumer or stop() wakes it.
  void serve();
  /// Ends serve() (from any thread).
  void stop();

  /// Summed over the rings; read when no side is running.
  std::uint64_t loop_chunks() const;
  std::uint64_t helper_chunks() const;

  /// Runs serve() on a thread of its own for its lifetime: the destructor
  /// stops and joins it, however the scope is left. On Linux the thread
  /// never runs on the core its creator is on when it is made.
  class Helper {
   public:
    explicit Helper(LogRings& rings);
    ~Helper();
    Helper(const Helper&) = delete;
    Helper& operator=(const Helper&) = delete;

   private:
    LogRings& rings_;
    std::thread thread_;
  };

 private:
  friend class LogRing;

  /// Whether the helper is parked, and its wake-up (consumer side).
  bool parked() const { return parked_.load(std::memory_order_relaxed); }
  void wake();

  std::size_t count_;
  std::uint32_t capacity_;
  std::unique_ptr<LogRing[]> rings_;
  std::unique_ptr<double[]> values_;
  std::atomic<std::uint32_t> epoch_{0};  // bumped by every wake; the helper waits on it
  std::atomic<bool> parked_{false};
  std::atomic<bool> stop_{false};
};

}  // namespace adattl::sim
