#pragma once

// Open-loop UDP DNS load generator. Queries are due on a fixed schedule
// (rate / threads per thread, evenly spaced); a thread sends every query
// whose due time has passed and never blocks past the next due time, so a
// slow server shows up as latency and loss, never as a slower offered
// load. Latency is timed from each query's due time, which charges any
// generator stall to the queries it delays, and the generator reports how
// late it sent (lag) so a step where it, not the server, fell behind can
// be marked invalid. Replies are matched by (socket, DNS id).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace perfbench {

/// How one reply compares with the query it answers.
enum class Verdict { kAnswer, kRefused, kWrong };

struct GenConfig {
  int threads = 1;                 ///< sender/receiver threads
  std::vector<int> socket_fds;     ///< connected sockets; thread t owns every threads-th
  /// Query variants (id bytes are patched per send) and the seeded order in
  /// which queries cycle through them.
  std::vector<std::vector<std::uint8_t>> templates;
  std::vector<std::uint32_t> mix;
  /// Classifies a reply.
  std::function<Verdict(const std::uint8_t* reply, std::size_t len)> verify;
  double timeout_s = 0.1;  ///< a reply later than this after its due time fails
};

/// What one step (a fixed rate held for a fixed time) measured.
struct StepStats {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t due = 0;        ///< queries scheduled in the step
  std::uint64_t sent = 0;
  std::uint64_t send_failed = 0;
  std::uint64_t answered = 0;   ///< valid positive answers within the timeout
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;      ///< replies that fail verification (any time)
  std::uint64_t timeouts = 0;   ///< no reply within the timeout
  std::uint64_t inflight_early = 0;  ///< outstanding queries a quarter into the step
  std::uint64_t inflight_end = 0;    ///< outstanding when the last query was sent
  std::vector<float> latency_us;     ///< per answered query, from its due time
  std::vector<float> latency_due_s;  ///< due time (s into the step) of each latency sample
  std::vector<float> lag_us;         ///< per sent query, send time − due time
  std::vector<float> lag_due_s;      ///< due time (s into the step) of each lag sample

  /// Folds in the counts and samples of `s` (another thread, or a later
  /// step at the same rate); due times keep their own step's origin.
  void add(const StepStats& s);

  std::uint64_t failed() const { return timeouts + refused + wrong + send_failed; }
  double failed_fraction() const { return due ? static_cast<double>(failed()) / due : 0.0; }
};

class OpenLoopGenerator {
 public:
  explicit OpenLoopGenerator(GenConfig cfg);
  ~OpenLoopGenerator();

  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// Offers `rate` queries/s for `seconds`, then waits until every query
  /// is answered or timed out. `while_running` (may be empty) runs on the
  /// calling thread until the senders finish.
  StepStats run_step(double rate, double seconds,
                     const std::function<void()>& while_running = {});

  /// Reads whatever replies are still queued (after the server stopped);
  /// late replies are verified and counted.
  void drain_late();

  /// Positive answers received over the generator's life, within the
  /// timeout or late, plus replies the kernel dropped at our sockets.
  std::uint64_t answers_received() const;
  std::uint64_t socket_drops() const;
  std::uint64_t wrong_total() const;

 private:
  struct Thread;
  GenConfig cfg_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace perfbench
