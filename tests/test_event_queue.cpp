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
  // 24 slot bits and 40 seq bits: 16.7M live events and 1.1e12 schedules
  // per queue, past a million-client shard.
  static_assert(EventQueue::kMaxSlots == std::uint64_t{1} << 24);
  static_assert(EventQueue::kMaxSeq == (std::uint64_t{1} << 40) - 1);
  EXPECT_EQ(EventQueue::pack_tag(1, 0), std::uint64_t{1} << 24);
  EXPECT_EQ(EventQueue::pack_tag(5, 7), (std::uint64_t{5} << 24) | 7);
  const std::uint64_t top = EventQueue::pack_tag(EventQueue::kMaxSeq, EventQueue::kMaxSlots - 1);
  EXPECT_EQ(top, ~std::uint64_t{0});
  EXPECT_EQ(top >> EventQueue::kSlotBits, EventQueue::kMaxSeq);
  EXPECT_EQ(top & (EventQueue::kMaxSlots - 1), EventQueue::kMaxSlots - 1);
  // A higher seq is a higher tag whatever the slots: tags order as seqs.
  EXPECT_LT(EventQueue::pack_tag(8, EventQueue::kMaxSlots - 1), EventQueue::pack_tag(9, 0));
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
    EXPECT_NE(std::string(e.what()).find("1099511627775 events scheduled"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)EventQueue::pack_tag(EventQueue::kMaxSeq + 1, EventQueue::kMaxSlots),
               std::length_error);
}

}  // namespace
}  // namespace adattl::sim
