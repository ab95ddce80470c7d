// The benchmark's inputs: seeded scenario worlds, their batch references
// and their accuracy scores. Everything here is derived from the seed
// alone; none of it is timed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/api/session.hpp"
#include "src/sim/scenario.hpp"

namespace perfbench {

/// Samples per chunk: one image hop, so every chunk completes one column.
inline constexpr std::size_t kHop = 25;
/// Seconds of stream per chunk (25 samples at 312.5 Hz).
inline constexpr double kChunkSec = 0.08;
/// Image columns one real-time sensor needs per second (312.5 Hz / 25).
inline constexpr double kColumnsPerSensorSec = 12.5;

/// The pipeline every sensor session compiles: the default smoothed-MUSIC
/// image stage emitting columns, plus multi-target tracking.
[[nodiscard]] wivi::api::PipelineSpec pipeline_spec();

/// One sensor's input and its expected output.
struct World {
  std::string family;             ///< scenario family it was drawn from
  wivi::sim::GeneratedScenario sc;  ///< trace (exactly `chunks` hops) + truth
  std::size_t chunks = 0;         ///< hops in the trace
  wivi::core::AngleTimeImage ref;  ///< wivi::Session batch reference image
  std::vector<std::uint64_t> ref_hash;  ///< column_hash of each ref column
  double ospa_deg = 0.0;          ///< sim::Evaluator OSPA of the world

  /// Hop `k` of the trace.
  [[nodiscard]] wivi::CSpan chunk(std::size_t k) const;
};

/// Generate `chunks.size()` worlds for `seed`: world i is drawn from the
/// walker, crossing, count and clutter families of
/// sim::scenario_families(seed) in turn, stretched or cut to chunks[i]
/// hops, then run through a batch wivi::Session (the reference) and
/// scored by sim::Evaluator. Uses `threads` threads.
[[nodiscard]] std::vector<World> make_worlds(
    std::uint64_t seed, const std::vector<std::size_t>& chunks, int threads);

/// SplitMix64 finaliser, for deriving per-purpose seeds.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// 64-bit digest of a column's exact bit pattern. Each word enters
/// through a bijective step, so columns differing in one value always
/// digest differently; storing digests instead of columns keeps memory
/// independent of how many columns a run completes.
[[nodiscard]] std::uint64_t column_hash(const wivi::RVec& column);

}  // namespace perfbench
