// Numeric parity between the pre-plan ("legacy") signal-chain
// implementations and the planned/workspace-reusing fast paths.
//
// The legacy STFT and MUSIC algorithms are reproduced here verbatim (as
// they stood before the fast-path refactor) and compared against the
// production implementations. Legacy MUSIC eigendecomposes with the
// test-only cyclic Jacobi oracle at tolerance 1e-15 and projects onto the
// noise eigenvectors, so it checks the production eigensolver and its
// signal-subspace scan rather than reusing them. MUSIC comparisons are
// made on the noise projection proj(theta) = 1 / A'[theta]: proj is
// bounded by ||a||^2 = 1 (unit-norm steering against orthonormal
// eigenvectors), so an absolute 1e-9 bound on it is meaningful
// everywhere, whereas the pseudospectrum itself amplifies rounding by
// 1/proj^2 exactly at its (sharp) peaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/db.hpp"
#include "src/common/random.hpp"
#include "src/core/doppler.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/fft.hpp"
#include "src/dsp/stats.hpp"
#include "src/dsp/window.hpp"
#include "src/rt/engine.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/synthetic.hpp"
#include "tests/jacobi_oracle.hpp"

namespace wivi {
namespace {

constexpr double kParityTol = 1e-9;

bool same_bits(const RVec& a, const RVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
/// Relative bound on A'[theta] itself in the scenario sweep (observed
/// worst case ~2e-10).
constexpr double kPeakRelTol = 1e-8;

/// A trace with a slow mover, a static residual, and noise — the same
/// construction bench_perf uses for the §7.1 full-trace benchmark.
CVec make_trace(std::size_t n, double speed_mps = 0.6) {
  return sim::synthetic_mover_trace(n, 404, speed_mps);
}

// ------------------------------------------------- legacy STFT (pre-PR) ---

core::DopplerSpectrogram legacy_stft(CSpan h,
                                     const core::DopplerProcessor::Config& cfg,
                                     double t0 = 0.0) {
  const auto nfft = static_cast<std::size_t>(cfg.fft_size);
  // Periodic to match the production STFT's COLA-correct window choice;
  // this parity suite pins the buffer-reuse refactor, not the window
  // convention (which test_dsp pins separately).
  const RVec window =
      dsp::make_window(dsp::WindowType::kHann, nfft, /*periodic=*/true);
  core::DopplerSpectrogram out;
  out.freqs_hz.resize(nfft);
  for (std::size_t f = 0; f < nfft; ++f) {
    const auto signed_bin =
        static_cast<double>(f) - static_cast<double>(nfft) / 2.0;
    out.freqs_hz[f] = signed_bin * cfg.sample_rate_hz / static_cast<double>(nfft);
  }
  for (std::size_t n = 0; n + nfft <= h.size();
       n += static_cast<std::size_t>(cfg.hop)) {
    CVec win(h.begin() + static_cast<std::ptrdiff_t>(n),
             h.begin() + static_cast<std::ptrdiff_t>(n + nfft));
    if (cfg.remove_dc) {
      cdouble mean{0.0, 0.0};
      for (const cdouble& v : win) mean += v;
      mean /= static_cast<double>(nfft);
      for (cdouble& v : win) v -= mean;
    }
    dsp::apply_window(win, window);
    dsp::fft(win);
    const CVec shifted = dsp::fftshift(win);
    RVec power(nfft);
    for (std::size_t f = 0; f < nfft; ++f) power[f] = norm2(shifted[f]);
    out.columns.push_back(std::move(power));
    out.times_sec.push_back(
        t0 + (static_cast<double>(n) + static_cast<double>(nfft) / 2.0) /
                 cfg.sample_rate_hz);
  }
  return out;
}

// ------------------------------------------ legacy smoothed MUSIC (pre-PR) ---

linalg::CMatrix legacy_smoothed_correlation(CSpan window, int subarray) {
  const auto wp = static_cast<std::size_t>(subarray);
  const std::size_t num_subarrays = window.size() - wp + 1;
  linalg::CMatrix r(wp, wp);
  for (std::size_t s = 0; s < num_subarrays; ++s) {
    const CSpan sub = window.subspan(s, wp);
    for (std::size_t i = 0; i < wp; ++i)
      for (std::size_t j = 0; j < wp; ++j)
        r(i, j) += sub[i] * std::conj(sub[j]);
  }
  r *= cdouble{1.0 / static_cast<double>(num_subarrays), 0.0};
  return r;
}

int legacy_model_order(const core::MusicConfig& cfg, RSpan eigenvalues) {
  const std::size_t n = eigenvalues.size();
  const std::size_t half = n / 2;
  RVec tail(eigenvalues.begin() + static_cast<std::ptrdiff_t>(half),
            eigenvalues.end());
  std::sort(tail.begin(), tail.end());
  const double floor = std::max(tail[tail.size() / 2], 1e-300);
  const double threshold = floor * from_db(cfg.signal_threshold_db);
  int order = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (eigenvalues[i] > threshold)
      ++order;
    else
      break;
  }
  order = std::clamp(order, 1, cfg.max_sources);
  order = std::min(order, static_cast<int>(n) - 1);
  return order;
}

RVec legacy_pseudospectrum_from_correlation(const core::MusicConfig& cfg,
                                            const linalg::CMatrix& r,
                                            RSpan angles_deg,
                                            int* model_order_out = nullptr) {
  const linalg::EigResult eig = oracle::jacobi_eig(r, 1e-15);
  const int order = legacy_model_order(cfg, eig.values);
  if (model_order_out != nullptr) *model_order_out = order;

  const std::size_t wp = r.rows();
  std::vector<CVec> noise;
  for (std::size_t j = static_cast<std::size_t>(order); j < wp; ++j)
    noise.push_back(eig.vectors.column(j));

  RVec spectrum(angles_deg.size(), 0.0);
  for (std::size_t ai = 0; ai < angles_deg.size(); ++ai) {
    CVec a = core::steering_vector(cfg.isar, angles_deg[ai], wp);
    const double inv_norm = 1.0 / std::sqrt(static_cast<double>(wp));
    for (auto& v : a) v *= inv_norm;
    double proj = 0.0;
    for (const CVec& u : noise) {
      cdouble dot{0.0, 0.0};
      for (std::size_t i = 0; i < wp; ++i) dot += std::conj(a[i]) * u[i];
      proj += norm2(dot);
    }
    spectrum[ai] = 1.0 / std::max(proj, 1e-12);
  }
  return spectrum;
}

RVec legacy_pseudospectrum(const core::MusicConfig& cfg, CSpan window,
                           RSpan angles_deg, int* model_order_out = nullptr) {
  return legacy_pseudospectrum_from_correlation(
      cfg, legacy_smoothed_correlation(window, cfg.subarray), angles_deg,
      model_order_out);
}

// ------------------------------------------------------------- the tests ---

TEST(FastPathParity, StftMatchesLegacy) {
  const CVec h = make_trace(1200);
  const core::DopplerProcessor::Config cfg;
  const core::DopplerProcessor proc(cfg);
  const core::DopplerSpectrogram fast = proc.process(h, 0.25);
  const core::DopplerSpectrogram ref = legacy_stft(h, cfg, 0.25);

  ASSERT_EQ(fast.num_times(), ref.num_times());
  ASSERT_EQ(fast.num_freqs(), ref.num_freqs());
  for (std::size_t f = 0; f < ref.num_freqs(); ++f)
    ASSERT_DOUBLE_EQ(fast.freqs_hz[f], ref.freqs_hz[f]);
  for (std::size_t t = 0; t < ref.num_times(); ++t) {
    ASSERT_DOUBLE_EQ(fast.times_sec[t], ref.times_sec[t]);
    for (std::size_t f = 0; f < ref.num_freqs(); ++f) {
      const double scale = std::max(1.0, std::abs(ref.columns[t][f]));
      ASSERT_NEAR(fast.columns[t][f], ref.columns[t][f], kParityTol * scale)
          << "t=" << t << " f=" << f;
    }
  }
}

TEST(FastPathParity, StftWithoutDcRemovalMatchesLegacy) {
  const CVec h = make_trace(600);
  core::DopplerProcessor::Config cfg;
  cfg.remove_dc = false;
  cfg.hop = 7;  // non-divisor hop exercises the column-count arithmetic
  const core::DopplerSpectrogram fast = core::DopplerProcessor(cfg).process(h);
  const core::DopplerSpectrogram ref = legacy_stft(h, cfg);
  ASSERT_EQ(fast.num_times(), ref.num_times());
  for (std::size_t t = 0; t < ref.num_times(); ++t)
    for (std::size_t f = 0; f < ref.num_freqs(); ++f) {
      const double scale = std::max(1.0, std::abs(ref.columns[t][f]));
      ASSERT_NEAR(fast.columns[t][f], ref.columns[t][f], kParityTol * scale);
    }
}

TEST(FastPathParity, SmoothedCorrelationMatchesLegacy) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const linalg::CMatrix fast = music.smoothed_correlation(h);
  const linalg::CMatrix ref =
      legacy_smoothed_correlation(h, music.config().subarray);
  ASSERT_EQ(fast.rows(), ref.rows());
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_NEAR(std::abs(fast(i, j) - ref(i, j)), 0.0, kParityTol)
          << i << "," << j;
}

/// A w-sample window of `sources` equal-power movers at distinct
/// steering phase steps spread over (-pi, pi), a DC residual and noise:
/// a smoothed correlation with `sources` + 1 signal eigenvalues.
CVec multi_source_window(std::size_t w, int sources, std::uint64_t seed) {
  Rng rng(seed);
  CVec h(w, cdouble{0.6, -0.2});
  for (int s = 0; s < sources; ++s) {
    const double step = kPi * (2.0 * (s + 0.5) / (sources + 1.0) - 1.0) +
                        rng.uniform(-0.05, 0.05);
    for (std::size_t t = 0; t < w; ++t) {
      const double p = step * static_cast<double>(t);
      h[t] += cdouble{std::cos(p), std::sin(p)};
    }
  }
  for (auto& v : h) v += rng.complex_gaussian(0.05);
  return h;
}

TEST(FastPathParity, PseudospectrumMatchesLegacy) {
  // The trig-polynomial scan against the noise-subspace legacy over
  // sub-array lengths from the single-lag polynomial (w' = 2) to the
  // default, three angle grids and model orders up to max_sources.
  const CVec trace = make_trace(100);
  std::size_t cases = 0;
  for (const int wp : {2, 3, 8, 31, 32}) {
    core::MusicConfig cfg;
    cfg.subarray = wp;
    cfg.max_sources = std::min(16, wp - 1);
    const core::SmoothedMusic music(cfg);
    int top_order = 0;
    for (const double step : {0.5, 1.0, 2.5}) {
      const RVec angles = core::angle_grid_deg(step);
      for (int sources = 0; sources <= cfg.max_sources; ++sources) {
        const CVec h = sources == 0
                           ? trace
                           : multi_source_window(100, sources, 97 * wp + sources);
        int fast_order = 0;
        int ref_order = 0;
        const RVec fast = music.pseudospectrum(h, angles, &fast_order);
        const RVec ref = legacy_pseudospectrum(cfg, h, angles, &ref_order);
        const std::string where = "w'=" + std::to_string(wp) +
                                  " step=" + std::to_string(step) +
                                  " sources=" + std::to_string(sources);
        ASSERT_EQ(fast_order, ref_order) << where;
        top_order = std::max(top_order, fast_order);
        ASSERT_EQ(fast.size(), ref.size()) << where;
        for (std::size_t ai = 0; ai < ref.size(); ++ai) {
          ASSERT_NEAR(1.0 / fast[ai], 1.0 / ref[ai], kParityTol)
              << where << " angle " << ai;
          ASSERT_NEAR(fast[ai] / ref[ai], 1.0, kPeakRelTol)
              << where << " angle " << ai;
        }
        ++cases;
      }
    }
    if (wp == 32) {
      EXPECT_EQ(top_order, cfg.max_sources);
    }
  }
  EXPECT_GT(cases, 100u);
}

TEST(FastPathParity, SlidingCorrelationMatchesDirectRebuild) {
  const CVec h = make_trace(1000);
  const core::SmoothedMusic music;
  const int w = music.config().isar.window;
  core::SlidingCorrelation sliding(music.config().subarray, w);
  linalg::CMatrix r;
  for (std::size_t pos = 0; pos + static_cast<std::size_t>(w) <= h.size();
       pos += 25) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    const linalg::CMatrix ref = music.smoothed_correlation(
        CSpan(h).subspan(pos, static_cast<std::size_t>(w)));
    ASSERT_EQ(r.rows(), ref.rows());
    ASSERT_EQ(r.cols(), ref.cols());
    ASSERT_EQ(std::memcmp(r.data(), ref.data(),
                          ref.rows() * ref.cols() * sizeof(cdouble)),
              0)
        << "pos=" << pos;
  }
}

TEST(FastPathParity, TrackerStreamingMatchesPerWindowMusic) {
  const CVec h = make_trace(2000);
  const core::MotionTracker tracker;
  const core::AngleTimeImage img = tracker.process(h);

  const core::SmoothedMusic music(tracker.config().music);
  const auto w = static_cast<std::size_t>(tracker.config().music.isar.window);
  const RVec angles = core::angle_grid_deg(tracker.config().angle_step_deg);
  ASSERT_GT(img.num_times(), 10u);
  for (std::size_t c = 0; c < img.num_times(); ++c) {
    const std::size_t n = c * static_cast<std::size_t>(tracker.config().hop);
    int order = 0;
    const RVec direct =
        music.pseudospectrum(CSpan(h).subspan(n, w), angles, &order);
    ASSERT_EQ(img.model_orders[c], order) << "column " << c;
    ASSERT_TRUE(same_bits(img.columns[c], direct)) << "column " << c;
  }
}

TEST(FastPathParity, EveryImagePathGivesTheSameBitsOnScenarioWorlds) {
  // One world each from the walker, crossing, count and clutter families
  // through every way the library builds an image. Each column is a
  // function of its window alone, so all of them equal per-window MUSIC
  // bit for bit, with the same model orders.
  const api::PipelineSpec spec;
  const core::MotionTracker::Config& cfg = spec.image.tracker;
  const core::SmoothedMusic music(cfg.music);
  const RVec angles = core::angle_grid_deg(cfg.angle_step_deg);
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);
  for (const sim::ScenarioFamily& fam : sim::scenario_families()) {
    if (fam.name != "walker" && fam.name != "crossing" && fam.name != "count" &&
        fam.name != "clutter")
      continue;
    ASSERT_FALSE(fam.cases.empty()) << fam.name;
    const sim::ScenarioCase& sc = fam.cases.front();
    const CVec h = sim::generate_scenario(sc.spec, sc.seed).h;
    const CSpan trace(h);

    // Reference: per-window MUSIC.
    std::vector<RVec> want;
    std::vector<int> want_orders;
    for (std::size_t pos = 0; pos + w <= h.size(); pos += hop) {
      want.emplace_back();
      int order = 0;
      music.pseudospectrum_into(trace.subspan(pos, w), angles, want.back(),
                                &order);
      want_orders.push_back(order);
    }
    auto expect_same = [&](const core::AngleTimeImage& img,
                           const std::string& path) {
      ASSERT_EQ(img.num_times(), want.size()) << fam.name << " " << path;
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(img.model_orders[c], want_orders[c])
            << fam.name << " " << path << " column " << c;
        ASSERT_TRUE(same_bits(img.columns[c], want[c]))
            << fam.name << " " << path << " column " << c;
      }
    };

    api::Session hop_by_hop(spec);
    for (std::size_t pos = 0; pos < h.size(); pos += hop)
      (void)hop_by_hop.push(trace.subspan(pos, std::min(hop, h.size() - pos)));
    hop_by_hop.finish();
    expect_same(hop_by_hop.image(), "Session::push hop by hop");

    api::Session batch(spec);
    batch.run(trace);
    expect_same(batch.image(), "Session::run(trace)");

    for (const int n : {1, 2, 4, 8}) {
      api::Session parallel(spec);
      parallel.run(trace, api::Parallelism{n});
      expect_same(parallel.image(),
                  "Session::run(trace, Parallelism{" + std::to_string(n) + "})");
    }

    const rt::SessionId id = engine.run_recorded(spec, trace);
    expect_same(engine.tracker(id).image(), "Engine::run_recorded");
  }
}

TEST(FastPathParity, ScenarioFamilyColumnsMatchTheJacobiOracle) {
  // Every image column of one world from each of the walker, crossing,
  // count and clutter families: the correlations the pipeline actually
  // sees, with model orders that vary column to column.
  const core::MotionTracker::Config cfg;
  const core::SmoothedMusic music(cfg.music);
  const RVec angles = core::angle_grid_deg(cfg.angle_step_deg);
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  std::size_t columns = 0;
  std::size_t multi_source = 0;
  for (const sim::ScenarioFamily& fam : sim::scenario_families()) {
    if (fam.name != "walker" && fam.name != "crossing" && fam.name != "count" &&
        fam.name != "clutter")
      continue;
    ASSERT_FALSE(fam.cases.empty()) << fam.name;
    const sim::ScenarioCase& c = fam.cases.front();
    const CVec h = sim::generate_scenario(c.spec, c.seed).h;
    core::SlidingCorrelation sliding(cfg.music.subarray, cfg.music.isar.window);
    linalg::CMatrix r;
    RVec fast;
    for (std::size_t pos = 0; pos + w <= h.size(); pos += hop, ++columns) {
      sliding.advance_to(h, pos);
      sliding.correlation_into(r);
      int fast_order = 0;
      int ref_order = 0;
      music.pseudospectrum_from_correlation_into(r, angles, fast, &fast_order);
      const RVec ref = legacy_pseudospectrum_from_correlation(cfg.music, r,
                                                              angles, &ref_order);
      ASSERT_EQ(fast_order, ref_order) << fam.name << " column " << pos / hop;
      if (fast_order > 2) ++multi_source;
      for (std::size_t ai = 0; ai < ref.size(); ++ai) {
        ASSERT_NEAR(1.0 / fast[ai], 1.0 / ref[ai], kParityTol)
            << fam.name << " column " << pos / hop << " angle " << ai;
        // Relative too: near a peak 1 - ||E_s^H a||^2 cancels, and only
        // the residual recomputation keeps the peak height itself close.
        ASSERT_NEAR(fast[ai] / ref[ai], 1.0, kPeakRelTol)
            << fam.name << " column " << pos / hop << " angle " << ai;
      }
    }
  }
  EXPECT_GT(columns, 300u);
  EXPECT_GT(multi_source, 0u);  // the sweep reaches past DC + one mover
}

TEST(FastPathParity, MedianInplaceMatchesMedian) {
  Rng rng(11);
  for (const std::size_t n : {1ul, 2ul, 5ul, 8ul, 101ul, 256ul}) {
    RVec x(n);
    for (auto& v : x) v = rng.gaussian();
    const double expected = dsp::median(x);
    RVec scratch = x;
    EXPECT_DOUBLE_EQ(dsp::median_inplace(scratch), expected) << "n=" << n;
  }
}

TEST(FastPathParity, PeakOverFloorMatchesSortBasedMedian) {
  const CVec h = make_trace(1200, 0.9);
  const core::DopplerSpectrogram spec = core::DopplerProcessor().process(h);
  const double got = spec.peak_over_floor(12.0);

  // Recompute with the pre-PR copy-and-sort median.
  double acc = 0.0;
  for (const RVec& col : spec.columns) {
    RVec band;
    double peak = 0.0;
    for (std::size_t f = 0; f < col.size(); ++f) {
      if (std::abs(spec.freqs_hz[f]) <= 12.0) continue;
      band.push_back(col[f]);
      peak = std::max(peak, col[f]);
    }
    acc += peak / std::max(dsp::median(band), 1e-300);
  }
  EXPECT_DOUBLE_EQ(got, acc / static_cast<double>(spec.columns.size()));
}

}  // namespace
}  // namespace wivi
