#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace adattl::sim {

/// Opaque handle to a scheduled event, usable to cancel it.
///
/// A handle encodes (slot, generation): slots are recycled through a free
/// list once their event fires or is cancelled, and every recycle bumps the
/// slot's generation, so a stale handle (for an event that already fired or
/// was cancelled) never aliases a newer event and is safely ignored by
/// cancel().
struct EventHandle {
  std::uint64_t id = 0;

  friend bool operator==(EventHandle a, EventHandle b) { return a.id == b.id; }
  explicit operator bool() const { return id != 0; }
};

/// Min-heap of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (ties break by insertion order,
/// which keeps simulations deterministic for a fixed seed).
///
/// Internals are built for the simulation's steady-state churn (fire one
/// event, schedule its successor, ~1.5M times per run), so that each
/// dispatched event costs about one sift:
///  * fire_next() runs the earliest event in place and leaves the heap's
///    root vacant; the first event the callback schedules sifts down from
///    that root instead of being appended and sifted up, so a near-future
///    successor (a service completion) stops after a level or two;
///  * the heap holds 24-byte (time, seq, slot) entries in a 4-ary layout
///    and orders them by one unsigned 128-bit key (the time's
///    order-preserving bit pattern, then seq), so each level picks the
///    least of four children without a data-dependent branch;
///  * callbacks live in a slot table addressed by the heap entries and
///    never move during sifts; slots are recycled via a free list, so the
///    table is bounded by the maximum number of *live* events;
///  * a slot is one 64-byte, line-aligned cache line (callback, seq,
///    generation), so firing an event reads one line of the table;
///  * callbacks are SBO `InlineCallback`s: scheduling a kernel-sized
///    capture performs zero heap allocations once the vectors reach
///    steady-state capacity, and moving one in or out of its slot is a
///    `memcpy` with no indirect call.
///
/// cancel() is lazy: it frees the slot at once and leaves the heap entry
/// behind as a tombstone (its seq no longer matches the slot's), which is
/// dropped when it reaches the root. A heap that fills up while at least a
/// quarter of it is tombstones is compacted in place instead of grown, so
/// its memory stays within a small multiple of the live peak, and the
/// compaction's cost is spread over the cancels that made it necessary.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Precondition: `at` must not be
  /// in the past relative to the last fired event (checked by Simulator).
  EventHandle schedule(SimTime at, Callback cb);

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle h);

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not yet fired) events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event. Precondition: !empty(), and no
  /// fire_next() callback is running.
  SimTime next_time() const;

  /// Removes and returns the earliest live event. Precondition: !empty(),
  /// and no fire_next() callback is running.
  std::pair<SimTime, Callback> pop();

  /// Fires the earliest live event in place: frees its slot, sets `now`
  /// to its time and runs its callback. The first event the callback
  /// schedules takes the vacated root; if it schedules none, the root is
  /// removed as pop() removes it. A throwing callback leaves the queue
  /// consistent and the exception propagates. Precondition: !empty(), and
  /// no other fire_next() callback is running.
  void fire_next(SimTime& now);

  /// Pre-sizes the heap and slot table for `n` concurrent events so the
  /// first n schedules allocate nothing.
  void reserve(std::size_t n);

  // ---- Kernel health (always-on, trivially cheap) ----
  /// Largest number of simultaneously live events seen so far — how close
  /// the run came to the reserve() sizing.
  std::size_t peak_size() const { return peak_size_; }
  /// Successful cancel() calls since construction.
  std::uint64_t cancels() const { return cancels_; }

 private:
  // Heap entries carry only the ordering key plus the slot index; the
  // callback never moves during sifts.
  struct HeapItem {
    std::uint64_t time_key;  // the time's bits, remapped so unsigned order is time order
    std::uint64_t seq;       // tie-breaker: lower seq fires first
    std::uint32_t slot;      // index into slots_
  };

  // One cache line per slot: the 48-byte callback, seq and generation,
  // line-aligned so firing an event touches exactly one line of the table
  // (std::vector allocates over-aligned types through aligned new).
  struct alignas(64) Slot {
    Callback cb;
    std::uint64_t seq = 0;  // seq of the live event held here; 0 when free
    std::uint32_t gen = 1;  // bumped on every release; 0 is never used
  };
  static_assert(sizeof(Slot) == 64, "an event slot is exactly one cache line");
  static_assert(alignof(Slot) == 64, "an event slot starts a cache line");

  /// A heap entry whose event was cancelled (its slot was freed, and may
  /// since hold a newer event with a larger seq).
  bool dead(const HeapItem& item) const { return slots_[item.slot].seq != item.seq; }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void remove_root();
  void drop_dead_root();
  void finish_fire();
  void compact();
  void sift_up(std::size_t hole, HeapItem item);
  void sift_down(std::size_t hole, HeapItem item);

  std::vector<HeapItem> heap_;  // live entries plus tombstones
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t cancels_ = 0;
  /// True while a fire_next() callback runs and has scheduled nothing:
  /// heap_[0] is a hole waiting for the first successor.
  bool root_vacant_ = false;
};

}  // namespace adattl::sim
