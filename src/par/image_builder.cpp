#include "src/par/image_builder.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace wivi::par {

ParallelImageBuilder::ParallelImageBuilder(core::MotionTracker::Config cfg,
                                           int num_threads)
    : cfg_(cfg), pool_(num_threads) {
  WIVI_REQUIRE(cfg_.hop >= 1, "hop must be >= 1");
  WIVI_REQUIRE(cfg_.angle_step_deg > 0.0, "angle step must be positive");
  music_.assign(static_cast<std::size_t>(pool_.num_threads()),
                core::SmoothedMusic(cfg_.music));
}

core::AngleTimeImage ParallelImageBuilder::build(CSpan h, double t0) const {
  const auto w = static_cast<std::size_t>(cfg_.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg_.hop);
  WIVI_REQUIRE(h.size() >= w, "channel stream shorter than one ISAR window");
  const std::size_t num_cols = (h.size() - w) / hop + 1;
  const double T = cfg_.music.isar.sample_period_sec;

  core::AngleTimeImage img;
  img.angles_deg = core::angle_grid_deg(cfg_.angle_step_deg);
  img.columns.resize(num_cols);
  img.model_orders.resize(num_cols);
  img.times_sec.resize(num_cols);

  const std::size_t num_blocks =
      (num_cols + kColumnsPerBlock - 1) / kColumnsPerBlock;
  pool_.parallel_for(num_blocks, [&](std::size_t block, int worker) {
    const core::SmoothedMusic& music = music_[static_cast<std::size_t>(worker)];
    const std::size_t c1 = std::min((block + 1) * kColumnsPerBlock, num_cols);
    for (std::size_t c = block * kColumnsPerBlock; c < c1; ++c) {
      const std::size_t n = c * hop;
      int order = 0;
      music.pseudospectrum_into(h.subspan(n, w), img.angles_deg,
                                img.columns[c], &order);
      img.model_orders[c] = order;
      img.times_sec[c] =
          t0 + (static_cast<double>(n) + static_cast<double>(w) / 2.0) * T;
    }
  });
  return img;
}

}  // namespace wivi::par
