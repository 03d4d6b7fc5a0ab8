#include "sim/simulator.h"

#include <limits>

namespace adattl::sim {

std::uint64_t Simulator::dispatch(SimTime end) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.next_time() <= end) {
    queue_.fire_next(now_);
    ++n;
  }
  dispatched_ += n;
  return n;
}

std::uint64_t Simulator::run_until(SimTime end) {
  const std::uint64_t n = dispatch(end);
  // Advance the clock to the horizon even if the queue drained early, so
  // time-weighted statistics close their final interval at `end`.
  if (now_ < end) now_ = end;
  return n;
}

std::uint64_t Simulator::run() {
  // No event time is NaN (at() and after() reject it), so every one is
  // at or before +inf.
  return dispatch(std::numeric_limits<SimTime>::infinity());
}

}  // namespace adattl::sim
