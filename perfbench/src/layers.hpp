// The traced run's layer replay: the workload's worlds pushed through each
// layer's public entry points on one thread, every call timed from
// outside and kept as a span tree per image column.
#pragma once

#include <string>
#include <vector>

#include "src/workloads.hpp"

namespace perfbench {

/// Time each layer over the first few worlds: frame parse and reassembly
/// (net), one-hop Session::push and its guard stage (api), the column's
/// correlation update, eigensolve and scan (core, linalg), detection and
/// tracker step (track), the per-block correlation rebuild and the
/// column-parallel build at `par_threads` threads (par). Writes the column
/// span trees as Chrome trace-event JSON to `trace_path`, fills
/// `r.layers`, and records replay mismatches in `r.problems`. Returns the
/// self-time table as a JSON object.
std::string replay_layers(const std::vector<World>& worlds, int par_threads,
                          const std::string& trace_path, RunResult& r);

}  // namespace perfbench
