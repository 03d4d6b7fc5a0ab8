#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace adattl::sim {

/// Sequential discrete-event simulator.
///
/// Components schedule callbacks at absolute or relative simulated times;
/// run_until()/run() dispatch them in timestamp order (FIFO among equal
/// timestamps). This is the CSIM-replacement kernel the whole model runs
/// on: servers, monitors and the DNS are all just event closures, and the
/// client pool, as the simulator's one owner, schedules its clients'
/// events by index.
///
/// The kernel is single-threaded by design — runs are deterministic given
/// a fixed seed, which the statistics methodology (replications with
/// distinct seeds) relies on.
class Simulator {
 public:
  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at`; throws std::invalid_argument
  /// if `at` lies in the past or is NaN (+inf is legal).
  EventHandle at(SimTime at, EventQueue::Callback cb) {
    // Negated so NaN fails too: it compares false either way, and a NaN
    // event would sit at the root and stop every later run_until().
    if (!(at >= now_)) {
      throw std::invalid_argument(std::isnan(at) ? "Simulator::at: NaN time"
                                                 : "Simulator::at: time in the past");
    }
    return queue_.schedule(at, std::move(cb));
  }

  /// Schedules `cb` to run `delay` seconds from now; negative or NaN
  /// delays throw.
  ///
  /// This is the kernel's dominant scheduling pattern (think times, service
  /// completions, RTT legs), so it validates the delay sign directly:
  /// `now_ + delay >= now_` holds for any delay >= 0 under IEEE rounding,
  /// which skips the redundant absolute past-time comparison in at().
  EventHandle after(SimTime delay, EventQueue::Callback cb) {
    check_delay(delay);
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  /// Registers the one owner of this simulator's owned events (see
  /// EventQueue::set_owner).
  void set_owner(const EventQueue::Owner& owner) { queue_.set_owner(owner); }

  /// Schedules the owner's event `index` `delay` seconds from now; it
  /// validates the delay as after() does (see EventQueue::schedule_owned).
  void after_owned(SimTime delay, std::uint32_t index) {
    check_delay(delay);
    queue_.schedule_owned(now_ + delay, index);
  }

  /// Cancels a pending event; returns true if it was still pending.
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Runs events until the queue is exhausted or simulated time would pass
  /// `end`. Events exactly at `end` are executed. Returns the number of
  /// events dispatched.
  std::uint64_t run_until(SimTime end);

  /// Runs until the queue is exhausted.
  std::uint64_t run();

  /// Total events dispatched since construction.
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Live events still pending.
  std::size_t pending() const { return queue_.size(); }

  /// Largest number of simultaneously pending events seen so far.
  std::size_t peak_pending() const { return queue_.peak_size(); }

  /// Successful cancellations since construction.
  std::uint64_t cancels() const { return queue_.cancels(); }

  /// Pre-sizes the event queue for `n` concurrent events (see
  /// EventQueue::reserve).
  void reserve(std::size_t n) { queue_.reserve(n); }

 private:
  /// The one dispatch loop: fires events in place while the earliest is
  /// at or before `end`.
  std::uint64_t dispatch(SimTime end);

  static void check_delay(SimTime delay) {
    if (!(delay >= 0.0)) {
      throw std::invalid_argument(std::isnan(delay) ? "Simulator::after: NaN delay"
                                                    : "Simulator::after: negative delay");
    }
  }

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace adattl::sim
