#include "src/worlds.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/par/thread_pool.hpp"
#include "src/sim/evaluate.hpp"

namespace perfbench {

namespace {

/// The families the benchmark streams (the fault-free, interference-free
/// part of the catalogue: what a deployed sensor mostly sees).
constexpr std::size_t kFamilies = 4;

/// Make a catalogue spec valid at `duration` seconds: movers that would
/// enter too late to be seen are dropped, late exits are left as they are.
wivi::sim::ScenarioSpec fit_to_duration(wivi::sim::ScenarioSpec spec,
                                        double duration) {
  spec.duration_sec = duration;
  std::vector<wivi::sim::ScenarioMover> kept;
  for (const auto& m : spec.movers)
    if (m.enter_sec + 0.5 < duration && m.exit_sec - m.enter_sec >= 0.5)
      kept.push_back(m);
  if (kept.empty() && spec.clutter.empty() && !spec.movers.empty()) {
    kept.push_back(spec.movers.front());
    kept.back().enter_sec = 0.0;
  }
  spec.movers = std::move(kept);
  return spec;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t column_hash(const wivi::RVec& column) {
  std::uint64_t h = 0x243F6A8885A308D3ull ^ column.size();
  for (const double v : column) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  return mix64(h);
}

wivi::api::PipelineSpec pipeline_spec() {
  wivi::api::PipelineSpec spec;
  spec.image.emit_columns = true;
  spec.track = wivi::api::TrackStage{};
  return spec;
}

wivi::CSpan World::chunk(std::size_t k) const {
  return wivi::CSpan(sc.h).subspan(k * kHop, kHop);
}

std::vector<World> make_worlds(std::uint64_t seed,
                               const std::vector<std::size_t>& chunks,
                               int threads) {
  const std::vector<wivi::sim::ScenarioFamily> fams =
      wivi::sim::scenario_families(seed);
  if (fams.size() < kFamilies)
    throw std::runtime_error("scenario catalogue has too few families");

  std::vector<World> worlds(chunks.size());
  const wivi::api::PipelineSpec spec = pipeline_spec();
  wivi::sim::EvaluatorConfig ecfg;
  ecfg.image = spec.image.tracker;
  ecfg.tracker = spec.track->tracker;
  const wivi::sim::Evaluator evaluator(ecfg);

  wivi::par::ThreadPool pool(threads);
  pool.parallel_for(worlds.size(), [&](std::size_t i, int) {
    const wivi::sim::ScenarioFamily& fam = fams[i % kFamilies];
    const wivi::sim::ScenarioCase& c =
        fam.cases[(i / kFamilies) % fam.cases.size()];
    const std::size_t n = chunks[i];
    const double duration = static_cast<double>(n) * kChunkSec + 0.04;
    World& w = worlds[i];
    w.family = fam.name;
    w.chunks = n;
    w.sc = wivi::sim::generate_scenario(fit_to_duration(c.spec, duration),
                                        mix64(c.seed ^ i));
    if (w.sc.h.size() < n * kHop)
      throw std::runtime_error("generated world shorter than requested");
    w.sc.h.resize(n * kHop);

    wivi::api::Session ref(spec);
    ref.run(w.sc.h);
    w.ref = ref.take_image();
    for (const wivi::RVec& col : w.ref.columns) w.ref_hash.push_back(column_hash(col));
    w.ospa_deg = evaluator.score(w.sc).ospa_deg;
  });
  return worlds;
}

}  // namespace perfbench
