// Differential fuzzing of the indexed-heap EventQueue against a trivially
// correct reference implementation (std::multimap ordered by (time, seq)).
// Random interleavings of schedule / cancel / pop must produce identical
// event sequences — this is the backbone the whole simulation's
// determinism rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <ostream>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace adattl::sim {
namespace {

/// Reference queue: multimap keyed by (time, seq) with lazy cancellation.
class ReferenceQueue {
 public:
  std::uint64_t schedule(double time) {
    const std::uint64_t id = next_id_++;
    live_.emplace(std::make_pair(time, id), id);
    ids_.insert({id, time});
    return id;
  }

  bool cancel(std::uint64_t id) {
    const auto it = ids_.find(id);
    if (it == ids_.end()) return false;
    live_.erase(std::make_pair(it->second, id));
    ids_.erase(it);
    return true;
  }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  /// Pops the earliest event, returning (time, id).
  std::pair<double, std::uint64_t> pop() {
    const auto it = live_.begin();
    const std::pair<double, std::uint64_t> out{it->first.first, it->second};
    ids_.erase(it->second);
    live_.erase(it);
    return out;
  }

 private:
  std::map<std::pair<double, std::uint64_t>, std::uint64_t> live_;
  std::map<std::uint64_t, double> ids_;
  std::uint64_t next_id_ = 1;
};

/// One fuzz case: a seed, and how many live events the queue holds. A
/// deep case fills the queue to its depth with a cancel for every two
/// schedules: the unreserved heap grows through a dozen reallocations, and
/// the tombstones make it compact in place on the way. 50,000 is about a
/// sharded_day shard's depth.
struct FuzzCase {
  std::uint64_t seed;
  std::size_t depth;
};

// Printed as the seed alone, so the suites name their cases by seed.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.seed; }

constexpr std::size_t kShardDepth = 50000;

class EventQueueFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EventQueueFuzz, MatchesReferenceUnderRandomOps) {
  RngStream rng(GetParam().seed);
  EventQueue dut;
  ReferenceQueue ref;

  // Parallel id maps: op sequences address events by a shared index.
  std::vector<std::optional<EventHandle>> dut_handles;
  std::vector<std::optional<std::uint64_t>> ref_ids;
  std::vector<double> scheduled_time;
  // Tag each scheduled event so pops can be compared by identity: the
  // reference assigns sequential ids in schedule order, so ref id == tag+1.
  std::vector<int> popped_tags_dut;

  double clock = 0.0;  // popped-time watermark; schedules stay >= clock

  // After a deep case's fill, the mix schedules, cancels and pops about
  // evenly, so the depth holds.
  bool filling = GetParam().depth > 0;
  for (int step = 0; step < 30000; step += !filling) {
    filling = filling && dut.size() < GetParam().depth;
    const double roll = !filling                      ? rng.next_double()
                        : rng.next_double() < 2.0 / 3 ? 0.0   // a schedule
                                                      : 0.6;  // a cancel
    if (roll < 0.5) {
      // Schedule at a time at/after the watermark; duplicates likely.
      const double t = clock + std::floor(rng.uniform(0.0, 16.0));  // integer offsets: many ties
      const int tag = static_cast<int>(dut_handles.size());
      dut_handles.push_back(dut.schedule(t, [tag, &popped_tags_dut] {
        popped_tags_dut.push_back(tag);
      }));
      ref_ids.push_back(ref.schedule(t));
      scheduled_time.push_back(t);
    } else if (roll < 0.65 && !dut_handles.empty()) {
      // Cancel a random (possibly already-fired/cancelled) event.
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(dut_handles.size()) - 1));
      bool dut_ok = false;
      if (dut_handles[idx]) {
        dut_ok = dut.cancel(*dut_handles[idx]);
        dut_handles[idx].reset();
      }
      bool ref_ok = false;
      if (ref_ids[idx]) {
        ref_ok = ref.cancel(*ref_ids[idx]);
        ref_ids[idx].reset();
      }
      ASSERT_EQ(dut_ok, ref_ok) << "step " << step;
    } else if (!dut.empty()) {
      ASSERT_FALSE(ref.empty());
      const auto [ref_t, ref_id] = ref.pop();
      ASSERT_DOUBLE_EQ(dut.next_time(), ref_t);
      auto [t, cb] = dut.pop();
      clock = t;
      cb();
      // Identity: both queues must have popped the *same* event.
      ASSERT_EQ(static_cast<std::uint64_t>(popped_tags_dut.back()) + 1, ref_id)
          << "step " << step;
    }
    ASSERT_EQ(dut.size(), ref.size()) << "step " << step;
  }
  EXPECT_GE(dut.peak_size(), GetParam().depth);

  // Drain both and compare identity end-to-end.
  while (!dut.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto [ref_t, ref_id] = ref.pop();
    auto [t, cb] = dut.pop();
    ASSERT_DOUBLE_EQ(t, ref_t);
    cb();
    ASSERT_EQ(static_cast<std::uint64_t>(popped_tags_dut.back()) + 1, ref_id);
  }
  EXPECT_TRUE(ref.empty());

  // FIFO-within-timestamp: the DUT's pop order must be globally stable —
  // tags with equal times must appear in increasing tag order.
  for (std::size_t i = 1; i < popped_tags_dut.size(); ++i) {
    const int a = popped_tags_dut[i - 1];
    const int b = popped_tags_dut[i];
    if (scheduled_time[static_cast<std::size_t>(a)] ==
        scheduled_time[static_cast<std::size_t>(b)]) {
      EXPECT_LT(a, b) << "ties must fire in insertion order";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz,
                         ::testing::Values(FuzzCase{1, 0}, FuzzCase{2, 0}, FuzzCase{3, 0},
                                           FuzzCase{5, 0}, FuzzCase{8, 0}, FuzzCase{13, 0},
                                           FuzzCase{21, 0}, FuzzCase{34, 0},
                                           FuzzCase{55, kShardDepth}, FuzzCase{89, kShardDepth}));

class EventQueueFireFuzz : public ::testing::TestWithParam<FuzzCase> {};

// The path every site run takes: Simulator::run_until fires each event in
// place, and its callback schedules 0, 1 or 2 successors (the first one
// takes the vacated root; some land at the current instant, so FIFO order
// among ties is exercised) and cancels a random pending closure event,
// sometimes before its first successor (root vacant) and sometimes after.
// The successor count keeps the population near the case's depth (300
// events unless it asks for more). A cancel after about half the fires
// leaves enough tombstones that the heap fills up and is compacted in place
// dozens of times per seed. About half the events are owned, as a client
// pool's are: the simulator's owner has an index for each of half the
// depth, and at most one pending event per index, which it picks at random
// among its idle indices. Every fire is checked against the multimap
// reference, by identity, so owned and closure events interleave in
// (time, seq) order.
TEST_P(EventQueueFireFuzz, FiringPathMatchesReference) {
  RngStream rng(GetParam().seed);
  const std::size_t depth = std::max<std::size_t>(GetParam().depth, 300);
  Simulator sim;
  ReferenceQueue ref;

  // Indexed by tag; the reference issues ids in schedule order, so a
  // tag's reference id is tag + 1.
  std::vector<EventHandle> handles;  // none for an owned event
  std::vector<std::size_t> live;     // tags of pending closure events
  std::vector<std::size_t> live_at;  // tag -> index in `live`
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
  std::uint64_t owned_fired = 0;
  bool growing = true;

  // The owner: per index, the tag of its one pending event.
  constexpr std::size_t kIdle = ~std::size_t{0};
  struct alignas(64) Record {
    std::uint64_t words[16];
  };
  std::vector<Record> records(depth / 2);
  std::vector<std::size_t> pending_tag(records.size(), kIdle);
  std::vector<std::uint32_t> idle(records.size());
  for (std::uint32_t i = 0; i < idle.size(); ++i) idle[i] = i;
  std::function<void(std::size_t)> on_fire;
  struct Owner {
    std::function<void(std::uint32_t)> fire;
    static void call(void* ctx, std::uint32_t i) { static_cast<Owner*>(ctx)->fire(i); }
  } owner;
  owner.fire = [&](std::uint32_t i) {
    const std::size_t tag = pending_tag[i];
    ASSERT_NE(tag, kIdle) << "index " << i << " fired with no pending event";
    pending_tag[i] = kIdle;
    idle.push_back(i);
    ++owned_fired;
    on_fire(tag);
  };
  sim.set_owner({&Owner::call, &owner, records.data(), sizeof(Record)});

  auto forget = [&](std::size_t tag) {
    const std::size_t at = live_at[tag];
    live_at[live.back()] = at;
    live[at] = live.back();
    live.pop_back();
  };
  auto schedule = [&](double t) {
    const std::size_t tag = handles.size();
    // Every time is a whole number of seconds, so now + (t - now) is t.
    if (!idle.empty() && rng.next_double() < 0.5) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1));
      const std::uint32_t i = idle[pick];
      idle[pick] = idle.back();
      idle.pop_back();
      sim.after_owned(t - sim.now(), i);
      pending_tag[i] = tag;
      handles.emplace_back();
      live_at.push_back(kIdle);
    } else {
      handles.push_back(sim.after(t - sim.now(), [&on_fire, &forget, tag] {
        forget(tag);
        on_fire(tag);
      }));
      live_at.push_back(live.size());
      live.push_back(tag);
    }
    ASSERT_EQ(ref.schedule(t), tag + 1);
  };
  auto cancel_one = [&] {
    if (live.empty()) return;
    const std::size_t tag = live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
    ASSERT_TRUE(sim.cancel(handles[tag]));
    ASSERT_TRUE(ref.cancel(tag + 1));
    ASSERT_FALSE(sim.cancel(handles[tag]));
    forget(tag);
    ++cancels;
  };
  on_fire = [&](std::size_t tag) {
    const auto [ref_t, ref_id] = ref.pop();
    ASSERT_EQ(ref_id, tag + 1) << "fire " << fired;
    ASSERT_EQ(sim.now(), ref_t);
    ++fired;
    const bool cancel_first = rng.next_double() < 0.5;
    const bool cancel = growing && rng.next_double() < 0.55;
    if (cancel && cancel_first) cancel_one();
    const double roll = rng.next_double();
    const int successors = !growing             ? 0
                           : ref.size() < depth ? (roll < 0.7 ? 2 : 1)
                                                : (roll < 0.6 ? 1 : roll < 0.8 ? 2 : 0);
    for (int i = 0; i < successors; ++i) {
      const double kind = rng.next_double();
      const double delay = kind < 0.3   ? 0.0
                           : kind < 0.8 ? std::floor(rng.uniform(0.0, 8.0))
                                        : std::floor(rng.uniform(0.0, 64.0));
      schedule(sim.now() + delay);
    }
    if (cancel && !cancel_first) cancel_one();
    ASSERT_EQ(sim.pending(), ref.size());
  };

  for (int i = 0; i < 300; ++i) schedule(std::floor(rng.uniform(0.0, 8.0)));
  while (ref.size() < depth) {
    schedule(std::floor(rng.uniform(0.0, 8.0)));
    if (rng.next_double() < 1.0 / 3) cancel_one();
  }
  // Many short horizons: the loop's `next_time() <= end` stop is checked
  // against events exactly at the horizon as well.
  for (double end = 0.0; fired < 40000; end += 0.5) {
    ASSERT_GT(sim.pending(), 0u) << "the event population died out";
    const std::uint64_t before = fired;
    const std::uint64_t n = sim.run_until(end);
    EXPECT_EQ(n, fired - before);
    ASSERT_EQ(sim.pending(), ref.size());
    ASSERT_FALSE(HasFatalFailure());
  }
  growing = false;
  sim.run();
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.cancels(), cancels);
  EXPECT_EQ(sim.events_dispatched(), fired);
  EXPECT_GE(sim.peak_pending(), depth);
  EXPECT_GT(cancels, 15000u);
  // Both kinds fired in bulk.
  EXPECT_GT(owned_fired, fired / 4);
  EXPECT_LT(owned_fired, fired * 3 / 4);
  EXPECT_EQ(idle.size(), records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFireFuzz,
                         ::testing::Values(FuzzCase{3, 0}, FuzzCase{11, 0}, FuzzCase{29, 0},
                                           FuzzCase{47, 0}, FuzzCase{61, kShardDepth},
                                           FuzzCase{83, kShardDepth}));

/// Naive oracle for the recycling fuzz: a vector of (time, tag) kept
/// unsorted; pop scans for the minimum (time, tag). Trivially correct, and
/// tag order doubles as the FIFO-within-timestamp check because tags are
/// issued in schedule order.
class SortedVectorOracle {
 public:
  void schedule(double time, int tag) { live_.push_back({time, tag}); }

  bool cancel(int tag) {
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->second == tag) {
        live_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  std::pair<double, int> pop() {
    auto best = live_.begin();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->first < best->first ||
          (it->first == best->first && it->second < best->second)) {
        best = it;
      }
    }
    const std::pair<double, int> out = *best;
    live_.erase(best);
    return out;
  }

 private:
  std::vector<std::pair<double, int>> live_;
};

class EventQueueRecycleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Exercises the free-list/generation handle semantics: a small resident
// set with a high pop rate forces constant slot recycling, every handle
// ever issued is retained and re-cancelled later (stale cancels must hit
// the generation check, not a newer event in the recycled slot), and
// integer timestamps force FIFO tie-breaks against the naive oracle.
TEST_P(EventQueueRecycleFuzz, HandleReuseMatchesNaiveOracle) {
  RngStream rng(GetParam());
  EventQueue dut;
  SortedVectorOracle ref;

  std::vector<EventHandle> all_handles;   // every handle ever issued, by tag
  std::vector<bool> ref_live;             // oracle's view: tag still pending?
  std::vector<int> popped_tags;
  double clock = 0.0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.40) {
      // Schedule at integer offsets: many equal-timestamp ties.
      const double t = clock + std::floor(rng.uniform(0.0, 6.0));
      const int tag = static_cast<int>(all_handles.size());
      all_handles.push_back(
          dut.schedule(t, [tag, &popped_tags] { popped_tags.push_back(tag); }));
      ref.schedule(t, tag);
      ref_live.push_back(true);
    } else if (roll < 0.55 && !all_handles.empty()) {
      // Cancel an arbitrary historical handle: mostly stale (fired or
      // cancelled long ago, slot since recycled several times).
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(all_handles.size()) - 1));
      const bool dut_ok = dut.cancel(all_handles[idx]);
      bool ref_ok = false;
      if (ref_live[idx]) {
        ref_ok = ref.cancel(static_cast<int>(idx));
        ref_live[idx] = false;
      }
      ASSERT_EQ(dut_ok, ref_ok) << "stale/live cancel disagreement at step " << step;
    } else if (!dut.empty()) {
      // High pop rate keeps the resident set tiny -> aggressive recycling.
      ASSERT_FALSE(ref.empty());
      const auto [ref_t, ref_tag] = ref.pop();
      ref_live[static_cast<std::size_t>(ref_tag)] = false;
      ASSERT_DOUBLE_EQ(dut.next_time(), ref_t);
      auto [t, cb] = dut.pop();
      clock = t;
      cb();
      ASSERT_EQ(popped_tags.back(), ref_tag) << "identity mismatch at step " << step;
    }
    ASSERT_EQ(dut.size(), ref.size()) << "step " << step;
  }

  while (!dut.empty()) {
    ASSERT_FALSE(ref.empty());
    const auto [ref_t, ref_tag] = ref.pop();
    auto [t, cb] = dut.pop();
    ASSERT_DOUBLE_EQ(t, ref_t);
    cb();
    ASSERT_EQ(popped_tags.back(), ref_tag);
  }
  EXPECT_TRUE(ref.empty());

  // Every handle is now dead; cancelling each must be a rejected stale op.
  // (Equal-timestamp FIFO needs no separate check: the oracle pops ties in
  // tag order and identity was asserted pop-for-pop.)
  for (EventHandle h : all_handles) EXPECT_FALSE(dut.cancel(h));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRecycleFuzz,
                         ::testing::Values(2u, 7u, 19u, 101u));

TEST(EventQueueHandles, StaleHandleAfterSlotRecycleIsIgnored) {
  EventQueue q;
  const EventHandle h1 = q.schedule(1.0, [] {});
  q.pop();  // frees h1's slot
  // The next schedule recycles the slot; the generation tag must keep the
  // stale h1 from cancelling the new event.
  const EventHandle h2 = q.schedule(2.0, [] {});
  EXPECT_FALSE(h1 == h2);
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
  EXPECT_FALSE(q.cancel(h2));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueHandles, StaleHandleSurvivesManyRecycleRounds) {
  EventQueue q;
  const EventHandle first = q.schedule(0.5, [] {});
  q.pop();
  for (int round = 0; round < 1000; ++round) {
    const EventHandle h = q.schedule(static_cast<double>(round), [] {});
    EXPECT_FALSE(q.cancel(first)) << "round " << round;
    if (round % 2 == 0) {
      q.pop();
    } else {
      EXPECT_TRUE(q.cancel(h));
    }
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace adattl::sim
