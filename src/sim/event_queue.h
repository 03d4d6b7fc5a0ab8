#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
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

/// Min-heap of timestamped events with stable FIFO ordering among events
/// scheduled for the same instant (ties break by insertion order, which
/// keeps simulations deterministic for a fixed seed).
///
/// An event is one of two kinds:
///  * a *closure event* carries a callback, held in a slot of the queue's
///    slot table until it fires or is cancelled;
///  * an *owned event* carries only an index. A queue has at most one
///    owner (set_owner), an object with a record per index, such as a
///    client pool; firing owned event i calls the owner with i. An owned
///    event takes no slot and no callback, and cannot be cancelled.
///
/// Internals are built for the simulation's steady-state churn (fire one
/// event, schedule its successor, ~1.5M times per run), so that each
/// dispatched event costs about one sift and touches few cache lines:
///  * fire_next() runs the earliest event in place and leaves the heap's
///    root vacant; the first event the callback schedules sifts down from
///    that root instead of being appended and sifted up, so a near-future
///    successor (a service completion) stops after a level or two;
///  * the heap holds 16-byte (time key, tag) entries in a 4-ary layout,
///    where the tag packs the event's seq above an owned bit and an index
///    (the slot of a closure event, the owner's index of an owned one).
///    Seqs are unique, so one unsigned 128-bit compare of (time key, tag)
///    orders entries exactly by (time, seq), and each level picks the
///    least of four children without a data-dependent branch;
///  * the heap's buffer puts entry 1 on a cache-line boundary, so the four
///    children of every node are exactly one 64-byte line: one line per
///    sift level;
///  * callbacks live in a slot table addressed by the heap entries and
///    never move during sifts; slots are recycled via a free list, so the
///    table is bounded by the maximum number of live closure events;
///  * a slot is one 64-byte, line-aligned cache line (callback, seq,
///    generation), so firing a closure event reads one line of the table;
///  * before fire_next() runs an event, it prefetches the line where the
///    root's least child (the next event, unless this one schedules an
///    earlier one) is read first: its slot, or for an owned event the
///    owner's record, whose address the index in the heap entry gives with
///    no load;
///  * sift_down() prefetches the four lines of the next level's families
///    before it compares the current one, so a deep sift's misses overlap
///    instead of waiting one per level;
///  * callbacks are `InlineCallback`s, whose captures always live in their
///    32-byte buffer: scheduling performs zero heap allocations once the
///    vectors reach steady-state capacity, and moving a callback in or out
///    of its slot is a `memcpy` with no indirect call.
///
/// The tag bounds a queue to kMaxSlots live closure events, owned indices
/// below kMaxSlots, and kMaxSeq schedules over its lifetime; schedule()
/// and schedule_owned() throw std::length_error rather than wrap past
/// any of them.
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

  /// Low bits of a heap entry's tag: the slot or owned index.
  static constexpr unsigned kSlotBits = 24;
  /// Most closure events a queue holds live at once (slots 0 ..
  /// kMaxSlots - 1); owned indices are below it too.
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  /// The tag bit above the index that marks an owned event.
  static constexpr std::uint64_t kOwnedBit = kMaxSlots;
  /// The tag's seq lies above the owned bit.
  static constexpr unsigned kSeqShift = kSlotBits + 1;
  /// Most events a queue schedules over its lifetime (seqs 1 .. kMaxSeq).
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSeqShift)) - 1;

  /// A heap entry's tag, `seq << kSeqShift | owned << kSlotBits | index`.
  /// Throws std::length_error, naming the bound, if `seq` exceeds kMaxSeq
  /// or `index` is not below kMaxSlots.
  static std::uint64_t pack_tag(std::uint64_t seq, std::uint64_t index, bool owned = false) {
    if (index >= kMaxSlots || seq > kMaxSeq) [[unlikely]] {
      throw_past_bound(index >= kMaxSlots ? (owned ? Bound::kOwnedIndex : Bound::kSlots)
                                          : Bound::kSeq);
    }
    return seq << kSeqShift | (owned ? kOwnedBit : 0) | index;
  }

  /// What fire_next() calls to fire owned event `index`: `fire(ctx, index)`.
  using OwnerFire = void (*)(void* ctx, std::uint32_t index);

  /// The one owner of a queue's owned events. Owned event i reads first
  /// the record at `records + i * stride`, whose first line fire_next()
  /// prefetches one event ahead (a client record is that one line); the
  /// queue never reads through `records`, so a stale base changes speed,
  /// never order.
  struct Owner {
    OwnerFire fire = nullptr;
    void* ctx = nullptr;
    const void* records = nullptr;
    std::size_t stride = 0;
  };

  /// Registers the queue's owner. The owner must outlive its pending
  /// events. Registering the same `ctx` again replaces its entry (an owner
  /// whose records moved passes the new base); a different owner throws
  /// std::logic_error, as does an owner without a fire function.
  void set_owner(const Owner& owner);

  /// Schedules a closure event: `cb` at absolute time `at`. Precondition:
  /// `at` must not be in the past relative to the last fired event
  /// (checked by Simulator). Throws std::length_error, leaving the queue
  /// unchanged, if the event would be the kMaxSlots + 1-th live closure
  /// event or the kMaxSeq + 1-th event ever scheduled.
  EventHandle schedule(SimTime at, Callback cb);

  /// Schedules owned event `index` at absolute time `at` (the same
  /// precondition). It draws its seq from the counter closure events
  /// draw from, so the two kinds interleave in (time, seq) order. Throws
  /// std::logic_error if the queue has no owner, and std::length_error,
  /// naming the bound, if `index` is not below kMaxSlots or the seqs are
  /// spent; either way the queue is unchanged. The queue fires every owned
  /// event it was given, so an owner that allows one pending event per
  /// index checks that itself.
  void schedule_owned(SimTime at, std::uint32_t index);

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle h);

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not yet fired) events.
  std::size_t size() const { return live_; }

  /// Timestamp of the earliest live event. Precondition: !empty(), and no
  /// fire_next() callback is running.
  SimTime next_time() const;

  /// Removes and returns the earliest live event; an owned event comes
  /// back as a callback that calls its owner. Precondition: !empty(), and
  /// no fire_next() callback is running.
  std::pair<SimTime, Callback> pop();

  /// Fires the earliest live event in place: sets `now` to its time and
  /// runs its callback (freeing its slot first) or calls its owner. The
  /// first event the callback or owner schedules takes the vacated root;
  /// if it schedules none, the root is removed as pop() removes it. A
  /// throwing callback or owner leaves the queue consistent and the
  /// exception propagates. Precondition: !empty(), and no other
  /// fire_next() callback is running.
  void fire_next(SimTime& now);

  /// Pre-sizes the heap, slot table and free list for `n` concurrent
  /// events so the first n schedules allocate nothing.
  void reserve(std::size_t n);

  // ---- Kernel health (always-on, trivially cheap) ----
  /// Largest number of simultaneously live events seen so far — how close
  /// the run came to the reserve() sizing.
  std::size_t peak_size() const { return peak_size_; }
  /// Successful cancel() calls since construction.
  std::uint64_t cancels() const { return cancels_; }

 private:
  // Heap entries carry only the ordering key and the tag; the callback
  // never moves during sifts.
  struct HeapItem {
    std::uint64_t time_key;  // the time's bits, remapped so unsigned order is time order
    std::uint64_t tag;       // pack_tag(seq, index, owned): lower seq fires first
  };
  static_assert(sizeof(HeapItem) == 16, "four heap entries fill one cache line");

  static constexpr std::uint64_t kSlotMask = kMaxSlots - 1;
  static std::uint32_t slot_of(const HeapItem& item) {
    return static_cast<std::uint32_t>(item.tag & kSlotMask);
  }
  static bool owned(const HeapItem& item) { return (item.tag & kOwnedBit) != 0; }

  // Allocates the heap's entries with entry 1 on a cache-line boundary:
  // the children of node i are entries 4i+1 .. 4i+4, which then always
  // share one line.
  template <typename T>
  struct ChildLineAllocator {
    using value_type = T;
    static constexpr std::size_t kLine = 64;
    static constexpr std::size_t kPad = kLine - sizeof(T);

    ChildLineAllocator() = default;
    template <typename U>
    ChildLineAllocator(const ChildLineAllocator<U>&) noexcept {}

    T* allocate(std::size_t n) {
      void* block = ::operator new(n * sizeof(T) + kPad, std::align_val_t{kLine});
      return reinterpret_cast<T*>(static_cast<std::byte*>(block) + kPad);
    }
    void deallocate(T* p, std::size_t) noexcept {
      ::operator delete(reinterpret_cast<std::byte*>(p) - kPad, std::align_val_t{kLine});
    }
    friend bool operator==(ChildLineAllocator, ChildLineAllocator) { return true; }
  };

  // One cache line per slot: the 40-byte callback, seq and generation,
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
  /// since hold a newer event with a larger seq). Owned events are never
  /// cancelled.
  bool dead(const HeapItem& item) const {
    return !owned(item) && slots_[slot_of(item)].seq != item.tag >> kSeqShift;
  }

  enum class Bound { kSlots, kOwnedIndex, kSeq };
  [[noreturn]] static void throw_past_bound(Bound bound);
  void push(HeapItem item);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void remove_root();
  void drop_dead_root();
  void finish_fire();
  void compact();
  void sift_up(std::size_t hole, HeapItem item);
  void sift_down(std::size_t hole, HeapItem item);

  std::vector<HeapItem, ChildLineAllocator<HeapItem>> heap_;  // live entries plus tombstones
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Owner owner_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t cancels_ = 0;
  /// True while a fire_next() callback runs and has scheduled nothing:
  /// heap_[0] is a hole waiting for the first successor.
  bool root_vacant_ = false;
};

}  // namespace adattl::sim
