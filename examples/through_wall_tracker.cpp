// Multi-person through-wall tracker (paper §5.2, Fig. 5-3 / 7-2): live-style
// ASCII rendering of A'[theta, n] with several people moving behind a wall,
// plus the per-column dominant-angle readout a downstream application (e.g.
// gaming or elderly monitoring, §1) would consume.
//
//   ./through_wall_tracker [--people 1..3] [--material M] [--seed N]
//                          [--duration S]
// materials: hollow (default) | concrete | wood | glass
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <wivi/wivi.hpp>

#include "examples/example_cli.hpp"

int main(int argc, char** argv) {
  using namespace wivi;
  examples::Cli cli(argc, argv, "live-style multi-person through-wall view");
  const int people = cli.get_int("people", 2, "number of movers (1..3)");
  const std::string material_name =
      cli.get_string("material", "hollow", "hollow|concrete|wood|glass");
  const std::uint64_t seed = cli.get_seed("seed", 17, "scene seed");
  const double duration = cli.get_double("duration", 10.0, "trace seconds");
  const int threads =
      cli.get_int("threads", 0, "image-build workers (0 = all cores, 1 = "
                                "sequential)");
  if (!cli.ok()) return 2;
  if (people < 1 || people > 3 || threads < 0) {
    std::fprintf(stderr, "--people must be 1..3 and --threads >= 0\n");
    return 1;
  }

  rf::Material material = rf::Material::kHollowWall;
  if (material_name == "concrete")
    material = rf::Material::kConcrete8in;
  else if (material_name == "wood")
    material = rf::Material::kSolidWoodDoor;
  else if (material_name == "glass")
    material = rf::Material::kGlass;

  sim::CountingTrial trial;
  trial.room = sim::room_with_material(material);
  trial.num_humans = people;
  trial.subjects = {0, 3, 6};
  trial.duration_sec = duration;
  trial.seed = seed;
  trial.image_threads = threads;  // whole-trace build: column-parallel MUSIC

  std::printf("Wi-Vi through-wall tracker\n==========================\n");
  std::printf("scene: %d person(s) behind %s\n", people,
              std::string(rf::info(material).name).c_str());

  const sim::CountingResult r = sim::run_counting_trial(trial);
  std::printf("nulling: %.1f dB of flash suppression\n\n",
              r.effective_nulling_db);
  std::printf("%s\n", core::render_ascii(r.image).c_str());

  const core::MotionTracker tracker;
  const RVec trace = tracker.dominant_angle_trace(r.image);
  std::printf("motion readout (dominant angle; '+' approaching, '-' receding):\n");
  int moving_cols = 0;
  for (std::size_t i = 0; i < trace.size(); i += 5) {
    if (std::isnan(trace[i])) {
      std::printf("  t=%5.1fs   (no confident mover)\n", r.image.times_sec[i]);
    } else {
      std::printf("  t=%5.1fs   theta=%+4.0f deg  %s\n", r.image.times_sec[i],
                  trace[i], trace[i] > 0 ? "approaching" : "receding");
    }
  }
  for (double a : trace) moving_cols += !std::isnan(a);
  std::printf("\nmotion visible in %d of %zu frames\n", moving_cols, trace.size());
  return 0;
}
