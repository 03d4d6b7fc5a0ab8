#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adattl::experiment {

/// Worker count for parallel sweeps: the ADATTL_JOBS environment variable
/// (strictly parsed, clamped to [1, 512]), defaulting to
/// std::thread::hardware_concurrency(). 1 selects the legacy serial path —
/// no threads are created at all.
int default_jobs();

/// Small thread pool for fanning independent work (one Site::run() per
/// task in a sweep, one slice per task in a run) across cores.
///
/// A batch is a vector of thunks; workers claim indices from an atomic
/// cursor, so tasks may execute in any order and interleaving. Determinism
/// is the *caller's* contract: each task writes its result into its own
/// pre-allocated slot, which makes the output identical to running the
/// batch serially in index order. With jobs() == 1, or a batch of one
/// task, run() executes the batch in index order on the calling thread —
/// byte-for-byte the old serial loop.
///
/// Workers start only when a batch has a task for them: a batch of n tasks
/// starts workers until the pool holds min(jobs, n) - 1, and they stay for
/// later batches. Constructing a pool starts no thread.
class ParallelExecutor {
 public:
  explicit ParallelExecutor(int jobs = default_jobs());
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int jobs() const { return jobs_; }

  /// Runs every task to completion; the calling thread participates, so a
  /// pool of J jobs uses at most J-1 workers plus the caller. If tasks
  /// throw, the first exception (in completion order) is rethrown after the
  /// whole batch drains. Not reentrant from inside a task.
  void run(const std::vector<std::function<void()>>& tasks);

 private:
  struct Batch {
    const std::vector<std::function<void()>>* tasks = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t pending = 0;             // tasks not yet finished (mutex_)
    std::exception_ptr first_error;      // (mutex_)
  };

  void worker_loop();
  void drain(Batch* batch);

  const int jobs_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a new batch or stop_
  std::condition_variable done_cv_;  // run(): batch drained and released
  Batch* batch_ = nullptr;
  std::uint64_t batch_id_ = 0;  // bumped per batch so workers never rejoin one
  std::size_t active_workers_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // grown by run() only
};

}  // namespace adattl::experiment
