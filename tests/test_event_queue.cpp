#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace adattl::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReturnsTimestamp) {
  EventQueue q;
  q.schedule(7.5, [] {});
  auto [t, cb] = q.pop();
  EXPECT_DOUBLE_EQ(t, 7.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeDoesNotPop) {
  EventQueue q;
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(1.0, [&] { ran = true; });
  q.schedule(2.0, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelDefaultHandleReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
}

TEST(EventQueue, CancelledHeadSkipped) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle h = q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.cancel(h);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, ManyInterleavedScheduleCancelPop) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.schedule(static_cast<double>(1000 - i), [] {}));
  }
  // Cancel every third event.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    ASSERT_TRUE(q.cancel(handles[i]));
    ++cancelled;
  }
  EXPECT_EQ(q.size(), 1000u - cancelled);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GE(t, last);
    last = t;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u - cancelled);
}

TEST(EventQueue, HandlesAreDistinct) {
  EventQueue q;
  EventHandle a = q.schedule(1.0, [] {});
  EventHandle b = q.schedule(1.0, [] {});
  EXPECT_FALSE(a == b);
}

TEST(EventQueue, NegativeZeroOrdersAsZero) {
  // -0.0 == 0.0, so the two tie and fire in insertion order; a compare on
  // raw bit patterns would put -0.0 after every positive time.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(0.0, [&] { fired.push_back(0); });
  q.schedule(1.0, [&] { fired.push_back(2); });
  q.schedule(-0.0, [&] { fired.push_back(1); });
  q.schedule(-1.0, [&] { fired.push_back(-1); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
    if (fired.back() == 1) {
      EXPECT_EQ(t, 0.0);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventQueue, FireNextRunsEventsInOrderAndSetsTheClock) {
  EventQueue q;
  SimTime now = 0.0;
  std::vector<double> seen;
  q.schedule(2.0, [&] { seen.push_back(now); });
  q.schedule(1.0, [&] {
    seen.push_back(now);
    // The first successor takes the vacant root; the second is appended.
    q.schedule(now + 3.0, [&] { seen.push_back(now); });
    q.schedule(now, [&] { seen.push_back(-now); });
  });
  while (!q.empty()) q.fire_next(now);
  EXPECT_EQ(seen, (std::vector<double>{1.0, -1.0, 2.0, 4.0}));
  EXPECT_EQ(q.peak_size(), 3u);
}

TEST(EventQueue, CancelFromFiringCallbackKeepsTheVacantRoot) {
  EventQueue q;
  SimTime now = 0.0;
  std::vector<int> fired;
  EventHandle victim = q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] {
    // Cancelled while the root is vacant: the hole must survive for the
    // successor scheduled next.
    EXPECT_TRUE(q.cancel(victim));
    q.schedule(1.5, [&] { fired.push_back(15); });
  });
  while (!q.empty()) q.fire_next(now);
  EXPECT_EQ(fired, (std::vector<int>{15, 2}));
  EXPECT_EQ(q.cancels(), 1u);
}

TEST(EventQueue, ThrowingCallbackLeavesQueueConsistent) {
  EventQueue q;
  SimTime now = 0.0;
  std::vector<int> fired;
  q.schedule(1.0, [&] {
    q.schedule(4.0, [&] { fired.push_back(4); });  // took the root, then...
    throw std::runtime_error("after a successor");
  });
  q.schedule(2.0, [] { throw std::runtime_error("with the root vacant"); });
  q.schedule(3.0, [&] { fired.push_back(3); });

  EXPECT_THROW(q.fire_next(now), std::runtime_error);
  EXPECT_DOUBLE_EQ(now, 1.0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);

  EXPECT_THROW(q.fire_next(now), std::runtime_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);

  q.fire_next(now);
  q.fire_next(now);
  EXPECT_EQ(fired, (std::vector<int>{3, 4}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledEventsLeaveNoTraceInSizeOrOrder) {
  // Lazy cancellation: the heap keeps tombstones, but size() and the pop
  // order only ever see live events, and a full heap of tombstones is
  // compacted rather than grown.
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) {
      handles.push_back(q.schedule(static_cast<double>(round * 100 + i), [] {}));
    }
    for (std::size_t i = handles.size() - 100; i < handles.size(); i += 2) {
      ASSERT_TRUE(q.cancel(handles[i]));
    }
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(q.peak_size(), 1050u);
  EXPECT_EQ(q.cancels(), 1000u);
  double last = -1.0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    EXPECT_GT(t, last);
    EXPECT_EQ(static_cast<int>(t) % 2, 1);
    last = t;
  }
}

TEST(EventQueue, TagPacksSeqAboveSlotUpToEachBound) {
  // 24 index bits, the owned bit and 39 seq bits: 16.7M live events and
  // 5.5e11 schedules per queue, past a million-client shard.
  static_assert(EventQueue::kMaxSlots == std::uint64_t{1} << 24);
  static_assert(EventQueue::kOwnedBit == std::uint64_t{1} << 24);
  static_assert(EventQueue::kSeqShift == 25);
  static_assert(EventQueue::kMaxSeq == (std::uint64_t{1} << 39) - 1);
  EXPECT_EQ(EventQueue::pack_tag(1, 0), std::uint64_t{1} << 25);
  EXPECT_EQ(EventQueue::pack_tag(5, 7), (std::uint64_t{5} << 25) | 7);
  EXPECT_EQ(EventQueue::pack_tag(5, 7, true), (std::uint64_t{5} << 25) | (1u << 24) | 7);
  const std::uint64_t top =
      EventQueue::pack_tag(EventQueue::kMaxSeq, EventQueue::kMaxSlots - 1, true);
  EXPECT_EQ(top, ~std::uint64_t{0});
  EXPECT_EQ(top >> EventQueue::kSeqShift, EventQueue::kMaxSeq);
  EXPECT_EQ(top & (EventQueue::kMaxSlots - 1), EventQueue::kMaxSlots - 1);
  EXPECT_EQ(EventQueue::pack_tag(EventQueue::kMaxSeq, EventQueue::kMaxSlots - 1),
            top & ~EventQueue::kOwnedBit);
  // A higher seq is a higher tag whatever the index and kind: tags order
  // as seqs.
  EXPECT_LT(EventQueue::pack_tag(8, EventQueue::kMaxSlots - 1, true), EventQueue::pack_tag(9, 0));
  EXPECT_LT(EventQueue::pack_tag(8, EventQueue::kMaxSlots - 1), EventQueue::pack_tag(9, 0, true));
}

TEST(EventQueue, TagPastEitherBoundThrowsNamingIt) {
  try {
    (void)EventQueue::pack_tag(1, EventQueue::kMaxSlots);
    ADD_FAILURE() << "a slot past the bound packed";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("16777216 live events"), std::string::npos) << e.what();
  }
  try {
    (void)EventQueue::pack_tag(EventQueue::kMaxSeq + 1, 0);
    ADD_FAILURE() << "a seq past the bound packed";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("549755813887 events scheduled"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)EventQueue::pack_tag(EventQueue::kMaxSeq + 1, EventQueue::kMaxSlots),
               std::length_error);
}

/// An owner as a client pool is one: a record per index, and at most one
/// pending event per index, whose firing it logs.
struct LogOwner {
  std::vector<std::uint32_t> log;
  std::vector<std::uint64_t> records = std::vector<std::uint64_t>(32);
  std::uint32_t throw_at = ~0u;

  static void fire(void* ctx, std::uint32_t i) {
    auto& self = *static_cast<LogOwner*>(ctx);
    self.log.push_back(i);
    ++self.records[i];
    if (i == self.throw_at) throw std::runtime_error("owner threw");
  }
  EventQueue::Owner owner() { return {&fire, this, records.data(), sizeof(std::uint64_t)}; }
};

TEST(EventQueue, OwnedEventsInterleaveWithClosuresInTimeThenSeqOrder) {
  EventQueue q;
  LogOwner owner;
  q.set_owner(owner.owner());
  SimTime now = 0.0;
  // Closure events log their tag + 100.
  q.schedule(2.0, [&] { owner.log.push_back(100); });
  q.schedule_owned(1.0, 3);
  q.schedule_owned(2.0, 4);  // ties with the closure above, scheduled later
  q.schedule(1.0, [&] {
    owner.log.push_back(101);
    // The owned successor takes the vacant root, at the current instant.
    q.schedule_owned(now, 5);
  });
  EXPECT_EQ(q.size(), 4u);
  while (!q.empty()) q.fire_next(now);
  EXPECT_EQ(owner.log, (std::vector<std::uint32_t>{3, 101, 5, 100, 4}));
  EXPECT_EQ(owner.records[3] + owner.records[4] + owner.records[5], 3u);
  EXPECT_EQ(q.peak_size(), 4u);
  EXPECT_DOUBLE_EQ(now, 2.0);
}

TEST(EventQueue, OwnedEventsTakeNoSlotAndSurviveCancelsAroundThem) {
  // Owned entries are never tombstones: cancelling the closures around
  // them, and the compaction that follows, keeps every owned event.
  EventQueue q;
  LogOwner owner;
  q.set_owner(owner.owner());
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 0) {
      q.schedule_owned(static_cast<double>(i), static_cast<std::uint32_t>(i / 4));
    } else {
      handles.push_back(q.schedule(static_cast<double>(i), [] { FAIL() << "cancelled"; }));
    }
  }
  for (EventHandle h : handles) ASSERT_TRUE(q.cancel(h));
  EXPECT_EQ(q.size(), 16u);
  // The heap is full and three quarters tombstones: this compacts it.
  q.schedule_owned(64.0, 16);
  SimTime now = 0.0;
  while (!q.empty()) q.fire_next(now);
  ASSERT_EQ(owner.log.size(), 17u);
  for (std::uint32_t i = 0; i < 17; ++i) EXPECT_EQ(owner.log[i], i);
  // A handle names a slot, and an owned event has none.
  EXPECT_EQ(q.cancels(), handles.size());
}

TEST(EventQueue, OwnedIndexPastTheBoundThrowsNamingIt) {
  EventQueue q;
  LogOwner owner;
  q.set_owner(owner.owner());
  q.schedule_owned(1.0, 0);
  try {
    q.schedule_owned(2.0, static_cast<std::uint32_t>(EventQueue::kMaxSlots));
    ADD_FAILURE() << "an owned index past the bound was scheduled";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("owned event index not below 16777216"),
              std::string::npos)
        << e.what();
  }
  q.schedule_owned(3.0, static_cast<std::uint32_t>(EventQueue::kMaxSlots - 1));
  EXPECT_EQ(q.size(), 2u);
  auto [t, cb] = q.pop();
  EXPECT_DOUBLE_EQ(t, 1.0);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
}

TEST(EventQueue, ThrowingOwnerLeavesQueueConsistent) {
  EventQueue q;
  LogOwner owner;
  q.set_owner(owner.owner());
  owner.throw_at = 1;
  q.schedule_owned(1.0, 1);
  q.schedule(2.0, [&] { owner.log.push_back(100); });
  q.schedule_owned(3.0, 2);

  SimTime now = 0.0;
  EXPECT_THROW(q.fire_next(now), std::runtime_error);
  EXPECT_DOUBLE_EQ(now, 1.0);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.fire_next(now);
  q.fire_next(now);
  EXPECT_EQ(owner.log, (std::vector<std::uint32_t>{1, 100, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, AQueueHasOneOwner) {
  EventQueue q;
  EXPECT_THROW(q.schedule_owned(1.0, 0), std::logic_error);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.set_owner({}), std::logic_error);

  LogOwner first;
  LogOwner second;
  q.set_owner(first.owner());
  EXPECT_THROW(q.set_owner(second.owner()), std::logic_error);
  // The owner itself may register again, as one whose records moved does.
  first.records.resize(1000);
  q.set_owner(first.owner());
  q.schedule_owned(1.0, 999);
  SimTime now = 0.0;
  q.fire_next(now);
  EXPECT_EQ(first.log, (std::vector<std::uint32_t>{999}));
  EXPECT_TRUE(second.log.empty());
}

TEST(EventQueue, PopReturnsAnOwnedEventAsACallToItsOwner) {
  EventQueue q;
  LogOwner owner;
  q.set_owner(owner.owner());
  q.schedule_owned(2.0, 7);
  q.schedule(1.0, [&] { owner.log.push_back(100); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(owner.log, (std::vector<std::uint32_t>{100, 7}));
}

}  // namespace
}  // namespace adattl::sim
