/// @file
/// A reusable fork-join worker pool for data-parallel loops.
///
/// The batch pipeline's dominant cost is the per-column MUSIC
/// pseudospectrum (~1 ms/column against ~8 us of everything else), and the
/// columns of one angle-time image are independent once each worker owns
/// its workspaces. This pool is the execution engine for that sharding
/// (par::ParallelImageBuilder): a fixed set of threads, one blocking
/// parallel_for() at a time, tasks claimed dynamically off a shared atomic
/// counter so uneven task costs still balance. Threading/ownership rules
/// and the determinism argument live in DESIGN.md §7.
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

namespace wivi::par {

/// A fixed-size fork-join pool: parallel_for() fans a task index range out
/// over the pool's threads (the calling thread participates as worker 0)
/// and blocks until every task has run.
///
/// One job at a time: parallel_for() may be called repeatedly, from any
/// single thread at a time, but never concurrently or reentrantly (from
/// inside a task) on one pool — enforced. Give independent concurrent
/// callers independent pools.
class ThreadPool {
 public:
  /// Task body: fn(task_index, worker_index). worker_index is in
  /// [0, num_threads()) and is stable for the duration of one task, which
  /// is what lets callers keep one mutable workspace per worker.
  using Task = std::function<void(std::size_t, int)>;

  /// Start a pool of `num_threads` total workers (including the calling
  /// thread's slot); 0 means std::thread::hardware_concurrency(). A pool
  /// of 1 spawns no threads and parallel_for() runs inline, in index
  /// order.
  explicit ThreadPool(int num_threads = 0);
  /// Joins the worker threads (any running parallel_for must have
  /// returned — the single-caller contract guarantees that).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;             ///< Non-copyable.
  ThreadPool& operator=(const ThreadPool&) = delete;  ///< Non-copyable.

  /// Total workers, counting the calling thread's slot.
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

  /// Run fn(i, worker) for every i in [0, count). Tasks are claimed
  /// dynamically (uneven costs balance); every task runs exactly once even
  /// if some throw, and the first exception is rethrown here after all
  /// tasks finish. Blocks until the whole range is done.
  ///
  /// `caller_idle`, if set, runs once on the calling thread when it finds
  /// no task left to claim, while the other workers may still be running
  /// theirs: work that overlaps the job's tail. Its exception is rethrown
  /// after all tasks finish, ahead of any task's.
  void parallel_for(std::size_t count, const Task& fn,
                    const std::function<void()>& caller_idle = {});

 private:
  void worker_loop(int worker_id);
  void run_tasks(const Task& fn, std::size_t count, int worker_id);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;  // workers: a new job was published
  std::condition_variable done_cv_;   // caller: pending_/active_ reached 0
  std::uint64_t generation_ = 0;      // bumped per published job (under mu_)
  bool stop_ = false;

  // Current job. job_ is non-null exactly while one is in flight; workers
  // read it under mu_ after observing the generation bump.
  const Task* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::atomic<std::size_t> next_{0};  // dynamic task claim cursor
  std::size_t pending_ = 0;           // unfinished tasks (under mu_)
  int active_ = 0;                    // workers inside run_tasks (under mu_)
  std::exception_ptr first_error_;    // first task exception (under mu_)
};

}  // namespace wivi::par
