#include "src/par/thread_pool.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace wivi::par {

ThreadPool::ThreadPool(int num_threads) {
  WIVI_REQUIRE(num_threads >= 0, "thread count must be >= 0");
  num_threads_ =
      num_threads > 0
          ? num_threads
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  // Worker 0 is the caller's slot; only ids 1.. get dedicated threads.
  for (int w = 1; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::parallel_for(std::size_t count, const Task& fn,
                              const std::function<void()>& caller_idle) {
  if (num_threads_ == 1 || count == 0) {
    // No pool threads: run inline, in index order — but with the same
    // exception contract as the threaded path (every task runs, first
    // exception rethrown at the end), so pool size never changes
    // observable semantics.
    std::exception_ptr first;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i, 0);
      } catch (...) {
        if (first == nullptr) first = std::current_exception();
      }
    }
    if (caller_idle) caller_idle();
    if (first != nullptr) std::rethrow_exception(first);
    return;
  }
  {
    std::lock_guard lk(mu_);
    WIVI_REQUIRE(job_ == nullptr,
                 "parallel_for is one-at-a-time per pool (no nesting, no "
                 "concurrent callers)");
    job_ = &fn;
    job_count_ = count;
    next_.store(0, std::memory_order_relaxed);
    pending_ = count;
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  run_tasks(fn, count, /*worker_id=*/0);
  // The other workers may still hold tasks that reference `fn`, so an
  // idle-hook exception waits for the drain like a task's.
  std::exception_ptr err;
  if (caller_idle) {
    try {
      caller_idle();
    } catch (...) {
      err = std::current_exception();
    }
  }

  std::unique_lock lk(mu_);
  // Wait for every task to finish AND every worker to leave run_tasks:
  // a straggler that claimed past the end must not still be around when
  // the next job resets the claim cursor.
  done_cv_.wait(lk, [&] { return pending_ == 0 && active_ == 0; });
  job_ = nullptr;
  if (err == nullptr) err = first_error_;
  first_error_ = nullptr;
  lk.unlock();
  if (err != nullptr) std::rethrow_exception(err);
}

void ThreadPool::run_tasks(const Task& fn, std::size_t count, int worker_id) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    std::exception_ptr err;
    try {
      fn(i, worker_id);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard lk(mu_);
    if (err != nullptr && first_error_ == nullptr) first_error_ = err;
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(int worker_id) {
  std::uint64_t seen = 0;
  for (;;) {
    const Task* job = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;  // null if the job already drained and was retired
      count = job_count_;
      if (job == nullptr) continue;
      ++active_;
    }
    run_tasks(*job, count, worker_id);
    std::lock_guard lk(mu_);
    if (--active_ == 0 && pending_ == 0) done_cv_.notify_all();
  }
}

}  // namespace wivi::par
