#include "src/par/image_builder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>

#include "src/common/error.hpp"

namespace wivi::par {

namespace {

/// The hand-off from the workers to the in-order consumer on the calling
/// thread. Workers publish whole blocks as they finish them, in any
/// order; the caller advances a frontier over the published prefix and
/// hands each newly finished run of columns to the consumer. A block that
/// threw lands unpublished, so the frontier never passes it.
class PrefixHandOff {
 public:
  PrefixHandOff(std::size_t num_blocks, std::size_t num_cols,
                const ParallelImageBuilder::PrefixConsumer& consume)
      : done_(num_blocks), num_cols_(num_cols), consume_(consume) {}

  /// Worker side: every slot of `block` is written. The release store
  /// orders those writes before the caller's acquire load of the flag.
  void publish(std::size_t block) {
    done_[block].store(true, std::memory_order_release);
    land();
  }

  /// Worker side: a block threw. It lands unpublished, which still wakes
  /// the caller, so a caller waiting for it cannot hang.
  void land() {
    landed_.fetch_add(1, std::memory_order_release);
    landed_.notify_one();
  }

  /// Caller side, non-blocking: hand the consumer every block published
  /// since the last call, up to the first one not published.
  void consume_ready(const core::AngleTimeImage& img) {
    if (error_ != nullptr) return;
    const std::uint32_t landed = landed_.load(std::memory_order_acquire);
    if (landed == seen_) return;
    seen_ = landed;
    std::size_t b = frontier_;
    while (b < done_.size() && done_[b].load(std::memory_order_acquire)) ++b;
    if (b == frontier_) return;
    const std::size_t from = frontier_ * ParallelImageBuilder::kColumnsPerBlock;
    const std::size_t end =
        std::min(b * ParallelImageBuilder::kColumnsPerBlock, num_cols_);
    frontier_ = b;
    try {
      consume_(img, from, end);
    } catch (...) {
      error_ = std::current_exception();  // no further call
    }
  }

  /// Caller side, once it has no block left to claim: consume the rest as
  /// it lands, blocking on the landed-block count in between (a spinning
  /// caller would take a core from the workers it waits for). Returns
  /// once the image is consumed or every block has landed; rethrows the
  /// consumer's exception.
  void consume_rest(const core::AngleTimeImage& img) {
    consume_ready(img);
    while (error_ == nullptr && frontier_ < done_.size() &&
           seen_ < done_.size()) {
      landed_.wait(seen_, std::memory_order_acquire);
      consume_ready(img);
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  std::vector<std::atomic<bool>> done_;   // per block: slots published
  std::atomic<std::uint32_t> landed_{0};  // blocks published or failed
  const std::size_t num_cols_;
  const ParallelImageBuilder::PrefixConsumer& consume_;
  // Caller-only state.
  std::size_t frontier_ = 0;  // first block not yet consumed
  std::uint32_t seen_ = 0;    // landed_ as of the last scan
  std::exception_ptr error_;  // the consumer's exception
};

}  // namespace

ParallelImageBuilder::ParallelImageBuilder(core::MotionTracker::Config cfg,
                                           int num_threads)
    : cfg_(cfg), pool_(num_threads) {
  WIVI_REQUIRE(cfg_.hop >= 1, "hop must be >= 1");
  WIVI_REQUIRE(cfg_.angle_step_deg > 0.0, "angle step must be positive");
  music_.assign(static_cast<std::size_t>(pool_.num_threads()),
                core::SmoothedMusic(cfg_.music));
}

core::AngleTimeImage ParallelImageBuilder::build(
    CSpan h, double t0, const PrefixConsumer& consume) const {
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
  std::optional<PrefixHandOff> handoff;
  std::function<void()> caller_idle;
  if (consume) {
    handoff.emplace(num_blocks, num_cols, consume);
    caller_idle = [&] { handoff->consume_rest(img); };
  }
  pool_.parallel_for(
      num_blocks,
      [&](std::size_t block, int worker) {
        const core::SmoothedMusic& music =
            music_[static_cast<std::size_t>(worker)];
        // The calling thread checks for a finished prefix between its
        // own columns, not only between blocks.
        PrefixHandOff* const feed =
            worker == 0 && handoff ? &*handoff : nullptr;
        const std::size_t c1 =
            std::min((block + 1) * kColumnsPerBlock, num_cols);
        try {
          for (std::size_t c = block * kColumnsPerBlock; c < c1; ++c) {
            if (feed != nullptr) feed->consume_ready(img);
            const std::size_t n = c * hop;
            int order = 0;
            music.pseudospectrum_into(h.subspan(n, w), img.angles_deg,
                                      img.columns[c], &order);
            img.model_orders[c] = order;
            img.times_sec[c] =
                t0 + (static_cast<double>(n) + static_cast<double>(w) / 2.0) *
                         T;
          }
        } catch (...) {
          if (handoff) handoff->land();
          throw;
        }
        if (handoff) handoff->publish(block);
      },
      caller_idle);
  return img;
}

}  // namespace wivi::par
