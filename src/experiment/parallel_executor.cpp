#include "experiment/parallel_executor.h"

#include <algorithm>

#include "experiment/env_config.h"

namespace adattl::experiment {

int default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw ? static_cast<int>(hw) : 1;
  return env_int("ADATTL_JOBS", fallback, 1, 512);
}

ParallelExecutor::ParallelExecutor(int jobs) : jobs_(std::max(1, jobs)) {}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || (batch_ && batch_id_ != seen); });
      if (stop_) return;
      seen = batch_id_;
      batch = batch_;
      ++active_workers_;
    }
    drain(batch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ParallelExecutor::drain(Batch* batch) {
  const std::size_t n = batch->tasks->size();
  for (;;) {
    const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    std::exception_ptr err;
    try {
      (*batch->tasks)[i]();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (err && !batch->first_error) batch->first_error = err;
      --batch->pending;
    }
    done_cv_.notify_all();
  }
}

void ParallelExecutor::run(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (jobs_ == 1 || tasks.size() == 1) {
    // Legacy serial path: index order on the calling thread, exceptions
    // propagate from the failing task immediately.
    for (const auto& task : tasks) task();
    return;
  }
  // No batch is published yet, so a worker started here waits for this one.
  const std::size_t wanted = std::min(static_cast<std::size_t>(jobs_), tasks.size()) - 1;
  while (workers_.size() < wanted) workers_.emplace_back([this] { worker_loop(); });

  Batch batch;
  batch.tasks = &tasks;
  batch.pending = tasks.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++batch_id_;
  }
  work_cv_.notify_all();
  drain(&batch);
  {
    // Wait until every task finished AND no worker still holds a pointer
    // to this stack-allocated batch (a late-woken worker may claim an
    // index past the end and exit without running anything).
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return batch.pending == 0 && active_workers_ == 0; });
    batch_ = nullptr;
  }
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

}  // namespace adattl::experiment
