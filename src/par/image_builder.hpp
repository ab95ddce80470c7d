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
#pragma once

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

  /// Compute the full angle-time image of a recorded channel-estimate
  /// stream; identical output for every thread count. `t0` is the
  /// absolute time of h.front().
  [[nodiscard]] core::AngleTimeImage build(CSpan h, double t0 = 0.0) const;

 private:
  core::MotionTracker::Config cfg_;
  mutable ThreadPool pool_;
  // One estimator per worker: core stages are single-threaded by design
  // (DESIGN.md §4 rule 4); parallelism comes from giving every worker its
  // own. The bulk scratch is the worker thread's core::music_scratch().
  std::vector<core::SmoothedMusic> music_;
};

}  // namespace wivi::par
