/// @file
/// Column-parallel construction of the smoothed-MUSIC angle-time image.
///
/// Every image column is a pure function of its own w-sample window: the
/// Eq. 5.2 correlation comes from the displacement kernel that reads only
/// that window (core::SmoothedMusic::smoothed_correlation_into), and the
/// MUSIC workspaces are fully overwritten by each call. So the columns of
/// a whole recorded trace (figure generation, benches,
/// rt::Engine::run_recorded, core::MotionTracker::process) can be sharded
/// across a par::ThreadPool: each worker owns a private SmoothedMusic,
/// claims blocks of kColumnsPerBlock columns, and writes into preassigned
/// column slots.
///
/// Determinism: blocks write disjoint slots and no column reads another's
/// state, so the output is bit-identical for every thread count, every
/// dynamic block-to-worker assignment, and to the streaming path
/// (rt::StreamingTracker), which calls the same per-window functions
/// (pinned by test_par and test_fastpath_parity; DESIGN.md §7).
///
/// A build can also feed an in-order consumer while it runs: the calling
/// thread hands it each newly finished prefix of the image, so serial
/// downstream work (api::Session's column events, counting and tracking)
/// overlaps the other workers' columns instead of waiting for the last
/// one (DESIGN.md §7, "Overlapping the serial stages").
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/core/tracker.hpp"
#include "src/par/thread_pool.hpp"

namespace wivi::par {

/// Builds core::AngleTimeImage by sharding columns over a worker pool.
/// Reusable across build() calls (workspaces and pool persist); one
/// build() at a time per instance — for concurrent builds give each
/// caller its own builder.
class ParallelImageBuilder {
 public:
  /// Columns per claim: the load-balancing granularity. It does not
  /// affect the output.
  static constexpr std::size_t kColumnsPerBlock = 16;

  /// Build with an internally owned pool of `num_threads` workers
  /// (0 = hardware concurrency; 1 = fully sequential, no threads).
  /// `cfg.num_threads` is ignored here — the explicit argument wins.
  explicit ParallelImageBuilder(core::MotionTracker::Config cfg,
                                int num_threads = 0);

  /// The imaging configuration (hop, angle grid, MUSIC parameters).
  [[nodiscard]] const core::MotionTracker::Config& config() const noexcept {
    return cfg_;
  }
  /// Worker count of the underlying pool.
  [[nodiscard]] int num_threads() const noexcept {
    return pool_.num_threads();
  }

  /// In-order consumer of a build in progress: consume(img, from, end)
  /// says columns [from, end) just joined the finished prefix [0, end).
  ///
  /// - Thread and order: it runs only on the calling thread (pool worker
  ///   0), between that thread's own columns and, once no block is left
  ///   to claim, while the thread blocks waiting for the other workers'
  ///   blocks. Calls are contiguous: `from` is the previous call's `end`
  ///   (0 on the first), so every column is seen exactly once, in index
  ///   order. Prefixes end on block boundaries (kColumnsPerBlock).
  /// - What it may read: `img.angles_deg`, and `columns`,
  ///   `model_orders` and `times_sec` below `end`. The slots at and after
  ///   `end` are still being written by other workers, and
  ///   `img.num_times()` is the final column count, not `end`. A worker
  ///   publishes a block's slots with a release store that the caller
  ///   acquires before handing out any prefix containing the block.
  /// - Failures: a block whose computation throws is never published, so
  ///   the prefix stops before it and no column at or after it reaches
  ///   the consumer; the failed block still wakes a waiting caller. If
  ///   the consumer throws, it is not called again. Either way build()
  ///   waits for every worker to finish and then rethrows; the
  ///   consumer's exception wins over a worker's.
  using PrefixConsumer = std::function<void(
      const core::AngleTimeImage& img, std::size_t from, std::size_t end)>;

  /// Compute the full angle-time image of a recorded channel-estimate
  /// stream; identical output for every thread count. `t0` is the
  /// absolute time of h.front(). A non-empty `consume` is fed each newly
  /// finished prefix on the calling thread while the build runs (see
  /// PrefixConsumer); it does not change the image.
  [[nodiscard]] core::AngleTimeImage build(
      CSpan h, double t0 = 0.0, const PrefixConsumer& consume = {}) const;

 private:
  core::MotionTracker::Config cfg_;
  mutable ThreadPool pool_;
  // One estimator per worker: core stages are single-threaded by design
  // (DESIGN.md §4 rule 4); parallelism comes from giving every worker its
  // own. The bulk scratch is the worker thread's core::music_scratch().
  std::vector<core::SmoothedMusic> music_;
};

}  // namespace wivi::par
