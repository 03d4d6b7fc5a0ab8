#pragma once

#include <chrono>

namespace adattl::obs {

/// Wall-clock stopwatch for phase timing. lap() returns the seconds since
/// construction or the previous lap and restarts the watch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double lap() {
    const Clock::time_point now = Clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace adattl::obs
