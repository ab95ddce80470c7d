// The four workloads. Each drives the library's public surface end to end
// over seeded worlds, verifies every output, and returns the end-to-end
// metrics plus, when traced, what the engine and the harness observed at
// each layer boundary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/stats.hpp"
#include "src/worlds.hpp"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;            ///< online CPUs
  std::string out_dir = ".";  ///< where traced artifacts go
};

/// Per-layer observations a traced workload run contributes (names as in
/// BENCHMARK.json's per_layer list).
using LayerMetrics = std::map<std::string, double>;

/// The outcome of one workload run.
struct RunResult {
  double sensors_per_core = 0.0;
  LatencySummary latency;  ///< e2e latency, ms
  double ospa_deg = 0.0;
  double setup_s = 0.0;
  FailureTally tally;
  /// Output checks that failed (empty when every output verified).
  std::vector<std::string> problems;
  /// Conservation-law violations (non-empty makes the command fail).
  std::vector<std::string> broken_laws;
  /// Filled only by traced runs.
  LayerMetrics layers;
  /// Free-form per-run diagnostics for the run report.
  std::map<std::string, std::string> notes;
};

/// Worker threads of the engine on the capacity workloads (saturate,
/// offline): one core is left to the generator thread and the host.
[[nodiscard]] int capacity_workers(int nproc);

/// Run `opts.workload` once with `workers` engine workers (0: the
/// workload's default) over `worlds` (make_workload_worlds). Traced runs
/// also fill RunResult::layers.
[[nodiscard]] RunResult run_workload(const Options& opts,
                                     const std::vector<World>& worlds,
                                     int workers, bool traced);

/// The seeded worlds a workload streams.
[[nodiscard]] std::vector<World> make_workload_worlds(const Options& opts);

/// Median of several cold set-ups of the workload's program state (the
/// engine, plus the receiver and binding on the network workloads, and
/// the first session opened with its plan builds). Also reports the cold
/// and warm Engine::open_session times and plan builds per cold set-up.
struct SetupResult {
  double setup_s = 0.0;
  double open_cold_ms = 0.0;
  double open_warm_ms = 0.0;
  double plan_builds = 0.0;
};
[[nodiscard]] SetupResult measure_setup(const Options& opts, int reps);

/// True when `name` is one of the four workloads.
[[nodiscard]] bool known_workload(const std::string& name);

}  // namespace perfbench
