#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace adattl::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator s;
  std::vector<double> times;
  s.at(1.0, [&] { times.push_back(s.now()); });
  s.at(2.0, [&] { times.push_back(s.now()); });
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator s;
  double fired_at = -1;
  s.at(5.0, [&] { s.after(2.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.at(10.0, [] {});
  s.run();
  EXPECT_THROW(s.at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, NanTimeThrows) {
  // A NaN event would sit at the root where `next_time() <= end` is false,
  // so run_until() would stop before every valid event behind it.
  Simulator s;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(s.at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(s.after(nan, [] {}), std::invalid_argument);
  int fired = 0;
  for (int i = 0; i < 6; ++i) s.at(static_cast<double>(i), [&] { ++fired; });
  EXPECT_EQ(s.run_until(10.0), 6u);
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(s.pending(), 0u);
  // +inf stays legal: it is later than any horizon.
  const double inf = std::numeric_limits<double>::infinity();
  s.at(inf, [&] { ++fired; });
  s.after(inf, [&] { ++fired; });
  EXPECT_EQ(s.run_until(1e9), 0u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(fired, 8);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int fired = 0;
  s.at(1.0, [&] { ++fired; });
  s.at(2.0, [&] { ++fired; });
  s.at(3.0, [&] { ++fired; });
  EXPECT_EQ(s.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtHorizon) {
  Simulator s;
  bool fired = false;
  s.at(2.0, [&] { fired = true; });
  s.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  Simulator s;
  s.at(1.0, [] {});
  s.run_until(100.0);
  EXPECT_DOUBLE_EQ(s.now(), 100.0);
}

TEST(Simulator, CancelPendingEvent) {
  Simulator s;
  bool fired = false;
  EventHandle h = s.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(h));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  // Each step schedules a copy of itself: a functor of two pointers.
  struct Step {
    Simulator* sim;
    int* chain;
    void operator()() const {
      if (++*chain < 100) sim->after(1.0, *this);
    }
  };
  Simulator s;
  int chain = 0;
  s.at(0.0, Step{&s, &chain});
  s.run();
  EXPECT_EQ(chain, 100);
  EXPECT_DOUBLE_EQ(s.now(), 99.0);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(static_cast<double>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_dispatched(), 7u);
}

}  // namespace
}  // namespace adattl::sim
