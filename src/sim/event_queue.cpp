#include "sim/event_queue.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace adattl::sim {

namespace {

// 4-ary heap indexing. The four children of a node are 64 contiguous
// bytes of 16-byte entries, and the heap's allocator starts every family
// on a line boundary: one cache line per sift level, versus a line per
// level over twice the levels for a binary heap of the same size.
constexpr std::size_t kArity = 4;

constexpr std::size_t parent_of(std::size_t i) { return (i - 1) / kArity; }
constexpr std::size_t first_child_of(std::size_t i) { return kArity * i + 1; }

// The strict (time, seq) order as one unsigned compare: ties on time fall
// through to the tag in the low half, whose high bits are the seq, with no
// branch on either.
__extension__ using Key = unsigned __int128;

template <typename Item>
Key key_of(const Item& item) {
  return (static_cast<Key>(item.time_key) << 64) | item.tag;
}

// Index of the least entry of the family of children that starts at
// `first` (first < n). A full family is a two-round tournament on index
// arithmetic, so the random event times never steer a branch. Inlined
// into each sift level.
template <typename Item>
[[gnu::always_inline]] inline std::size_t least_child(const Item* h, std::size_t first,
                                                      std::size_t n) {
  if (first + kArity <= n) {
    const std::size_t a = first + (key_of(h[first + 1]) < key_of(h[first]));
    const std::size_t b = first + 2 + (key_of(h[first + 3]) < key_of(h[first + 2]));
    return a ^ ((a ^ b) & (0 - static_cast<std::size_t>(key_of(h[b]) < key_of(h[a]))));
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (key_of(h[c]) < key_of(h[best])) best = c;
  }
  return best;
}

std::uint64_t time_key(SimTime t) {
  // -0.0 == 0.0, so they must tie (and fall back to seq); their bit
  // patterns differ. Then flip the sign bit of a non-negative time and
  // every bit of a negative one: unsigned order becomes numeric order.
  const auto bits = std::bit_cast<std::uint64_t>(t == 0.0 ? 0.0 : t);
  return bits ^ ((0 - (bits >> 63)) | (std::uint64_t{1} << 63));
}

SimTime time_of(std::uint64_t key) {
  return std::bit_cast<SimTime>(key ^ (((key >> 63) - 1) | (std::uint64_t{1} << 63)));
}

// The address `offset` bytes past `base`, computed as an integer: a
// prefetch of it never faults, but a pointer formed past the end of the
// object `base` points into would be undefined.
const void* byte_offset(const void* base, std::size_t offset) {
  return reinterpret_cast<const void*>(reinterpret_cast<std::uintptr_t>(base) + offset);
}

}  // namespace

void EventQueue::throw_past_bound(Bound bound) {
  switch (bound) {
    case Bound::kSlots:
      throw std::length_error("EventQueue: more than " + std::to_string(kMaxSlots) +
                              " live events");
    case Bound::kOwnedIndex:
      throw std::length_error("EventQueue: owned event index not below " +
                              std::to_string(kMaxSlots));
    case Bound::kSeq:
      break;
  }
  throw std::length_error("EventQueue: more than " + std::to_string(kMaxSeq) +
                          " events scheduled");
}

void EventQueue::set_owner(const Owner& owner) {
  if (owner.fire == nullptr) throw std::logic_error("EventQueue: an owner needs a fire function");
  if (owner_.fire != nullptr && owner_.ctx != owner.ctx) {
    throw std::logic_error("EventQueue: the queue already has an owner");
  }
  owner_ = owner;
}

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slots_.reserve(n);
  free_slots_.reserve(n);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  s.seq = 0;  // turns the event's heap entry, if still there, into a tombstone
  if (++s.gen == 0) s.gen = 1;  // generation 0 is reserved for "never valid"
  free_slots_.push_back(slot);
}

EventHandle EventQueue::schedule(SimTime at, Callback cb) {
  assert(cb && "cannot schedule an empty callback");
  // Packed before anything changes: past a bound the queue throws as it was.
  const std::uint64_t tag =
      pack_tag(next_seq_, free_slots_.empty() ? slots_.size() : free_slots_.back());
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = next_seq_++;
  push(HeapItem{time_key(at), tag});
  return EventHandle{(static_cast<std::uint64_t>(slot) << 32) | s.gen};
}

void EventQueue::schedule_owned(SimTime at, std::uint32_t index) {
  if (owner_.fire == nullptr) [[unlikely]] {
    throw std::logic_error("EventQueue: an owned event on a queue without an owner");
  }
  const std::uint64_t tag = pack_tag(next_seq_, index, true);
  ++next_seq_;
  push(HeapItem{time_key(at), tag});
}

void EventQueue::push(HeapItem item) {
  if (root_vacant_) {
    // The first successor of a firing event takes its root.
    root_vacant_ = false;
    sift_down(0, item);
  } else {
    const std::size_t tombstones = heap_.size() - live_;
    if (heap_.size() == heap_.capacity() && tombstones > 0 && tombstones >= heap_.size() / 4) {
      compact();
    }
    heap_.push_back(item);
    sift_up(heap_.size() - 1, item);
  }
  if (++live_ > peak_size_) peak_size_ = live_;
}

bool EventQueue::cancel(EventHandle h) {
  if (h.id == 0) return false;
  const auto slot = static_cast<std::uint32_t>(h.id >> 32);
  const auto gen = static_cast<std::uint32_t>(h.id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  // A released slot bumped its generation, so a stale handle mismatches
  // even after the slot was recycled for a newer event.
  if (s.gen != gen || s.seq == 0) return false;
  release_slot(slot);
  --live_;
  ++cancels_;
  // A vacant root is the firing event's hole, not a tombstone.
  if (!root_vacant_) drop_dead_root();
  return true;
}

SimTime EventQueue::next_time() const {
  assert(live_ > 0 && !root_vacant_);
  return time_of(heap_.front().time_key);
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  assert(live_ > 0 && !root_vacant_);
  const HeapItem top = heap_.front();
  Callback cb;
  if (owned(top)) {
    cb = [fire = owner_.fire, ctx = owner_.ctx, index = slot_of(top)] { fire(ctx, index); };
  } else {
    cb = std::move(slots_[slot_of(top)].cb);
    release_slot(slot_of(top));
  }
  --live_;
  remove_root();
  drop_dead_root();
  return {time_of(top.time_key), std::move(cb)};
}

void EventQueue::fire_next(SimTime& now) {
  assert(live_ > 0 && !root_vacant_);
  const HeapItem top = heap_.front();
  --live_;
  now = time_of(top.time_key);
  root_vacant_ = true;
  // The root's least child is the next event unless this one schedules an
  // earlier one. Its family is the line the successor's sift reads first
  // anyway; where it is read first, its slot or its owner's record, is a
  // random line the next fire would otherwise wait on. The tag alone gives
  // the address, so no load stands between the child's entry and the
  // prefetch. The kind selects base and stride through a mask, so no
  // branch depends on which kind comes next. (Inline on purpose: GCC deems
  // a function that only prefetches pure, and drops a call to it whose
  // result goes unused.)
  if (heap_.size() > 1) {
    const std::uint64_t next = heap_[least_child(heap_.data(), 1, heap_.size())].tag;
    const std::uintptr_t owned_mask = 0 - ((next >> kSlotBits) & 1);
    const std::uintptr_t base =
        (reinterpret_cast<std::uintptr_t>(owner_.records) & owned_mask) |
        (reinterpret_cast<std::uintptr_t>(slots_.data()) & ~owned_mask);
    const std::size_t stride = (owner_.stride & owned_mask) | (sizeof(Slot) & ~owned_mask);
    __builtin_prefetch(
        byte_offset(reinterpret_cast<const void*>(base), (next & kSlotMask) * stride));
  }
  try {
    if (owned(top)) {
      owner_.fire(owner_.ctx, slot_of(top));
    } else {
      Callback cb = std::move(slots_[slot_of(top)].cb);
      release_slot(slot_of(top));
      cb();
    }
  } catch (...) {
    finish_fire();
    throw;
  }
  finish_fire();
}

void EventQueue::finish_fire() {
  if (root_vacant_) {
    root_vacant_ = false;
    remove_root();
  }
  // A successor that took the root may have lifted a tombstone above it.
  drop_dead_root();
}

void EventQueue::remove_root() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::drop_dead_root() {
  // Outside a firing callback's vacancy, only tombstones make the heap
  // longer than the live count; without them no slot needs a look.
  while (heap_.size() > live_ && dead(heap_.front())) remove_root();
}

void EventQueue::compact() {
  std::size_t n = 0;
  for (const HeapItem& item : heap_) {
    if (!dead(item)) heap_[n++] = item;
  }
  heap_.resize(n);
  // Floyd heapify. The item is copied out first: sift_down writes the hole.
  if (n < 2) return;
  for (std::size_t i = parent_of(n - 1) + 1; i-- > 0;) sift_down(i, heap_[i]);
}

void EventQueue::sift_up(std::size_t hole, HeapItem item) {
  // Hole insertion: shift ancestors down one move each until `item` fits,
  // then write it once — no three-move swaps.
  HeapItem* const h = heap_.data();
  const Key k = key_of(item);
  while (hole > 0) {
    const std::size_t parent = parent_of(hole);
    if (!(k < key_of(h[parent]))) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = item;
}

void EventQueue::sift_down(std::size_t hole, HeapItem item) {
  HeapItem* const h = heap_.data();
  const std::size_t n = heap_.size();
  const Key k = key_of(item);
  for (std::size_t first = first_child_of(hole); first < n; first = first_child_of(hole)) {
    // The next level compares the children of one of first .. first + 3:
    // entries 4 * first + 1 .. 4 * first + 16, four whole lines. Fetch all
    // four before this level compares, so a deep sift's misses overlap
    // instead of waiting one per level.
    if (const std::size_t next = first_child_of(first); next < n) {
      __builtin_prefetch(h + next);
      __builtin_prefetch(byte_offset(h + next, 64));
      __builtin_prefetch(byte_offset(h + next, 128));
      __builtin_prefetch(byte_offset(h + next, 192));
    }
    const std::size_t best = least_child(h, first, n);
    if (!(key_of(h[best]) < k)) break;
    h[hole] = h[best];
    hole = best;
  }
  h[hole] = item;
}

}  // namespace adattl::sim
