// Tests for the ISAR emulated array (Eq. 5.1) and smoothed MUSIC (Eq. 5.3)
// on synthetic channel streams with known ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/constants.hpp"
#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/peaks.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"
#include "tests/correlation_oracle.hpp"

namespace wivi::core {
namespace {

/// Channel stream of a point target approaching the device at radial speed
/// vr (m/s): h[n] = amp * exp(+j 2 pi * 2 vr T n / lambda) (round trip
/// phase advance as the range closes).
CVec synthetic_mover(double vr, std::size_t n, const IsarConfig& cfg,
                     double amp = 1.0, double phase0 = 0.3) {
  CVec h(n);
  const double step = kTwoPi * 2.0 * vr * cfg.sample_period_sec / cfg.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = phase0 + step * static_cast<double>(i);
    h[i] = amp * cdouble{std::cos(phi), std::sin(phi)};
  }
  return h;
}

double expected_angle_deg(double vr, const IsarConfig& cfg) {
  return std::asin(vr / cfg.assumed_speed_mps) * 180.0 / kPi;
}

// ---------------------------------------------------------------- ISAR ---

TEST(Isar, ElementSpacingIsRoundTripDistancePerSample) {
  IsarConfig cfg;
  // Delta = 2 v T (paper §5.1 footnote 2): 2 * 1 m/s * 3.2 ms = 6.4 mm.
  EXPECT_NEAR(element_spacing_m(cfg), 0.0064, 1e-9);
}

TEST(Isar, SteeringVectorUnitModulus) {
  const IsarConfig cfg;
  for (const auto& v : steering_vector(cfg, 37.0, 50))
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
}

TEST(Isar, SteeringVectorAtZeroAngleIsAllOnes) {
  const IsarConfig cfg;
  for (const auto& v : steering_vector(cfg, 0.0, 20))
    EXPECT_NEAR(std::abs(v - cdouble{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Isar, AngleGridSpansPlusMinus90) {
  const RVec grid = angle_grid_deg(1.0);
  EXPECT_EQ(grid.size(), 181u);
  EXPECT_DOUBLE_EQ(grid.front(), -90.0);
  EXPECT_NEAR(grid.back(), 90.0, 1e-9);
}

TEST(Isar, RejectsOutOfRangeAngle) {
  const IsarConfig cfg;
  EXPECT_THROW((void)steering_vector(cfg, 91.0, 8), InvalidArgument);
}

// Parameterized: a target at radial speed vr beamforms to asin(vr/v).
class IsarAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(IsarAngleSweep, BeamformPeakTracksRadialSpeed) {
  const double vr = GetParam();
  IsarConfig cfg;
  const CVec h = synthetic_mover(vr, 100, cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec power = beamform_power(h, cfg, angles);
  const std::size_t peak = dsp::argmax(power);
  EXPECT_NEAR(angles[peak], expected_angle_deg(vr, cfg), 2.0)
      << "vr = " << vr;
}

INSTANTIATE_TEST_SUITE_P(RadialSpeeds, IsarAngleSweep,
                         ::testing::Values(-0.95, -0.7, -0.5, -0.25, 0.0, 0.25,
                                           0.5, 0.7, 0.95));

TEST(Isar, ApproachingTargetHasPositiveAngle) {
  // Sign semantics of §5.1: toward Wi-Vi = positive angle.
  IsarConfig cfg;
  const CVec h = synthetic_mover(+0.8, 100, cfg);
  const RVec angles = angle_grid_deg(1.0);
  const std::size_t peak = dsp::argmax(beamform_power(h, cfg, angles));
  EXPECT_GT(angles[peak], 0.0);
}

TEST(Isar, StaticResidualShowsAtZero) {
  IsarConfig cfg;
  const CVec h(100, cdouble{0.7, -0.2});  // pure DC (nulling residual)
  const RVec angles = angle_grid_deg(1.0);
  const std::size_t peak = dsp::argmax(beamform_power(h, cfg, angles));
  EXPECT_NEAR(angles[peak], 0.0, 1.0);
}

// --------------------------------------------------------------- MUSIC ---

TEST(Music, SmoothedCorrelationIsHermitianOfSubarraySize) {
  Rng rng(1);
  CVec h(100);
  for (auto& v : h) v = rng.complex_gaussian();
  MusicConfig cfg;
  cfg.subarray = 24;
  const SmoothedMusic music(cfg);
  const linalg::CMatrix r = music.smoothed_correlation(h);
  EXPECT_EQ(r.rows(), 24u);
  EXPECT_NEAR(r.hermitian_defect(), 0.0, 1e-10);
}

TEST(Music, ModelOrderSeparatesSignalFromNoiseFloor) {
  const SmoothedMusic music;
  // Two strong eigenvalues over a flat floor.
  RVec ev = {100.0, 40.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
  EXPECT_EQ(music.estimate_model_order(ev), 2);
  // All-noise: never returns 0 (the DC source always exists).
  RVec flat(8, 0.1);
  EXPECT_EQ(music.estimate_model_order(flat), 1);
}

TEST(Music, ModelOrderCappedByMaxSources) {
  MusicConfig cfg;
  cfg.max_sources = 3;
  const SmoothedMusic music(cfg);
  RVec ev = {100.0, 90.0, 80.0, 70.0, 60.0, 0.01, 0.01, 0.01};
  EXPECT_EQ(music.estimate_model_order(ev), 3);
}

TEST(Music, SingleMoverPeaksAtIsarAngle) {
  Rng rng(7);
  MusicConfig cfg;
  CVec h = synthetic_mover(0.5, 100, cfg.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-4);
  const SmoothedMusic music(cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec spec = music.pseudospectrum(h, angles);
  EXPECT_NEAR(angles[dsp::argmax(spec)], 30.0, 3.0);
}

TEST(Music, ResolvesTwoCoherentMoversPlusDc) {
  // The §5.2 scenario: two humans (correlated reflections of the same
  // transmitted signal) plus the DC residual.
  Rng rng(11);
  MusicConfig cfg;
  const CVec m1 = synthetic_mover(+0.8, 100, cfg.isar, 1.0, 0.2);
  const CVec m2 = synthetic_mover(-0.45, 100, cfg.isar, 0.8, 1.9);
  CVec h(100);
  for (std::size_t i = 0; i < h.size(); ++i)
    h[i] = m1[i] + m2[i] + cdouble{0.6, 0.3} + rng.complex_gaussian(1e-4);

  int order = 0;
  const SmoothedMusic music(cfg);
  const RVec angles = angle_grid_deg(1.0);
  const RVec spec = music.pseudospectrum(h, angles, &order);
  EXPECT_GE(order, 3);  // two movers + DC

  // Find the three tallest, well-separated spectral peaks.
  RVec spec_db(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) spec_db[i] = std::log10(spec[i]);
  const auto peaks = dsp::find_peaks(
      spec_db, {.min_height = -1e9, .min_distance = 8});
  ASSERT_GE(peaks.size(), 3u);
  // Collect peak angles sorted by spectral height.
  std::vector<std::pair<double, double>> by_height;  // (-value, angle)
  for (const auto& p : peaks) by_height.push_back({-p.value, angles[p.index]});
  std::sort(by_height.begin(), by_height.end());
  std::vector<double> top3 = {by_height[0].second, by_height[1].second,
                              by_height[2].second};
  std::sort(top3.begin(), top3.end());
  EXPECT_NEAR(top3[0], expected_angle_deg(-0.45, cfg.isar), 4.0);
  EXPECT_NEAR(top3[1], 0.0, 3.0);
  EXPECT_NEAR(top3[2], expected_angle_deg(0.8, cfg.isar), 4.0);
}

TEST(Music, SharperThanConventionalBeamforming) {
  // §5.2 footnote 6: MUSIC is a super-resolution technique; its peak is
  // narrower than the Eq. 5.1 beamformer's for the same data.
  Rng rng(5);
  MusicConfig cfg;
  CVec h = synthetic_mover(0.5, 100, cfg.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const RVec angles = angle_grid_deg(1.0);
  const SmoothedMusic music(cfg);
  const RVec spec = music.pseudospectrum(h, angles);
  const RVec beam = beamform_power(h, cfg.isar, angles);

  auto half_power_width = [&](const RVec& s) {
    const std::size_t peak = dsp::argmax(s);
    const double half = s[peak] / 2.0;
    std::size_t lo = peak;
    std::size_t hi = peak;
    while (lo > 0 && s[lo] > half) --lo;
    while (hi + 1 < s.size() && s[hi] > half) ++hi;
    return hi - lo;
  };
  EXPECT_LT(half_power_width(spec), half_power_width(beam));
}

TEST(Music, RejectsWindowShorterThanSubarray) {
  MusicConfig cfg;
  cfg.subarray = 32;
  const SmoothedMusic music(cfg);
  EXPECT_THROW((void)music.smoothed_correlation(CVec(16)), InvalidArgument);
}

TEST(Music, RejectsAnEmptyCorrelationWithATypedError) {
  const SmoothedMusic music;
  const RVec angles = angle_grid_deg(1.0);
  RVec out;
  EXPECT_THROW(music.pseudospectrum_from_correlation_into(linalg::CMatrix{},
                                                          angles, out),
               InvalidArgument);
}

// ------------------------------------------------------------- Tracker ---

TEST(Tracker, ImageDimensionsFollowConfig) {
  Rng rng(3);
  MotionTracker::Config cfg;
  cfg.hop = 50;
  const MotionTracker tracker(cfg);
  CVec h = synthetic_mover(0.4, 1000, cfg.music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h, 2.0);
  EXPECT_EQ(img.num_angles(), 181u);
  // Windows: floor((1000 - 100) / 50) + 1 = 19.
  EXPECT_EQ(img.num_times(), 19u);
  EXPECT_GT(img.times_sec.front(), 2.0);  // offset by half a window
}

TEST(Tracker, TracksChangingRadialSpeed) {
  // Speed ramps from +0.8 to -0.8 m/s; the dominant angle must swing from
  // positive to negative like the curved lines of Fig. 5-2(b).
  Rng rng(9);
  MotionTracker tracker;
  const IsarConfig isar;
  const std::size_t n = 2000;
  CVec h(n);
  double phase = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(n - 1);
    const double vr = 0.8 - 1.6 * frac;
    phase += kTwoPi * 2.0 * vr * isar.sample_period_sec / isar.wavelength_m;
    h[i] = cdouble{std::cos(phase), std::sin(phase)} + rng.complex_gaussian(1e-4);
  }
  const AngleTimeImage img = tracker.process(h);
  const RVec trace = tracker.dominant_angle_trace(img);
  ASSERT_GE(trace.size(), 10u);
  // Early columns positive (approaching), late columns negative (receding).
  EXPECT_GT(trace[1], 20.0);
  EXPECT_LT(trace[trace.size() - 2], -20.0);
}

TEST(Tracker, ColumnDbIsNonNegativeAndCapped) {
  Rng rng(13);
  MotionTracker tracker;
  CVec h = synthetic_mover(0.3, 300, tracker.config().music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h);
  const RVec col = img.column_db(0, 60.0);
  for (double v : col) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 60.0);
  }
}

TEST(Tracker, RenderAsciiProducesGrid) {
  Rng rng(13);
  MotionTracker tracker;
  CVec h = synthetic_mover(0.3, 400, tracker.config().music.isar);
  for (auto& v : h) v += rng.complex_gaussian(1e-5);
  const AngleTimeImage img = tracker.process(h);
  const std::string art = render_ascii(img, 40, 21);
  EXPECT_GT(std::count(art.begin(), art.end(), '\n'), 20);
}

TEST(Tracker, RejectsTooShortStream) {
  const MotionTracker tracker;
  EXPECT_THROW((void)tracker.process(CVec(50)), InvalidArgument);
}

// ------------------------------------------------ smoothed correlation ---

/// A mover under a DC term 60 dB stronger (the nulling residual), plus
/// weak noise: the dynamic range the correlation must not lose the mover
/// in.
CVec dc_dominated_stream(std::size_t n, Rng& rng) {
  CVec h = synthetic_mover(0.4, n, IsarConfig{});
  for (auto& v : h) v += cdouble{600.0, 800.0} + rng.complex_gaussian(1e-2);
  return h;
}

bool same_bits(const linalg::CMatrix& a, const linalg::CMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(cdouble)) == 0;
}

/// Every window of `h` at hop `hop` through one SlidingCorrelation, each
/// entry within 1e-15 ||R||_F of the long-double definition.
void expect_oracle_accurate(CSpan h, int window, int subarray, std::size_t hop,
                            const std::string& what) {
  const auto w = static_cast<std::size_t>(window);
  SlidingCorrelation sliding(subarray, window);
  linalg::CMatrix r;
  for (std::size_t pos = 0; pos + w <= h.size(); pos += hop) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    const oracle::LongCorrelation want = oracle::smoothed_correlation(
        h.subspan(pos, w), static_cast<std::size_t>(subarray));
    ASSERT_LE(oracle::max_error_over_frobenius(r, want), 1e-15)
        << what << " (w, w') = (" << window << ", " << subarray
        << ") pos=" << pos;
  }
}

TEST(SmoothedCorrelation, KernelMatchesTheLongDoubleOracle) {
  // The pipeline's shape, a small one, S = 1, w' = 2 and an odd one.
  const std::pair<int, int> shapes[] = {
      {100, 32}, {24, 8}, {32, 32}, {33, 2}, {101, 31}};
  Rng rng(2026);
  for (const auto& [w, wp] : shapes) {
    const std::size_t n = static_cast<std::size_t>(w) + 60;
    CVec gaussian(n);
    for (auto& v : gaussian) v = rng.complex_gaussian();
    expect_oracle_accurate(gaussian, w, wp, 3, "complex Gaussian");
    expect_oracle_accurate(dc_dominated_stream(n, rng), w, wp, 3,
                           "DC 60 dB over a mover");
  }
  // And every column of one world from each of four scenario families.
  const MotionTracker::Config cfg;
  const auto fams = sim::scenario_families();
  for (const char* family : {"walker", "crossing", "count", "clutter"}) {
    const auto it = std::find_if(fams.begin(), fams.end(),
                                 [&](const auto& f) { return f.name == family; });
    ASSERT_NE(it, fams.end()) << family;
    ASSERT_FALSE(it->cases.empty()) << family;
    const sim::ScenarioCase& c = it->cases.front();
    expect_oracle_accurate(sim::generate_scenario(c.spec, c.seed).h,
                           cfg.music.isar.window, cfg.music.subarray,
                           static_cast<std::size_t>(cfg.hop), family);
  }
}

TEST(SlidingCorrelation, AnyVisitOrderGivesTheSameBits) {
  // A position's correlation has no history: forward, repeated and
  // backward visits, and visits right after a rebuild() elsewhere, all
  // give the bits of a fresh instance and of smoothed_correlation_into()
  // on the same window.
  constexpr int kWindow = 100;
  constexpr int kSubarray = 32;
  Rng rng(41);
  CVec h(700);
  for (auto& v : h) v = rng.complex_gaussian();
  MusicConfig mc;
  mc.subarray = kSubarray;
  const SmoothedMusic music(mc);

  SlidingCorrelation driven(kSubarray, kWindow);
  linalg::CMatrix got;
  linalg::CMatrix fresh_r;
  linalg::CMatrix direct;
  const std::size_t visits[] = {0, 25, 50, 50, 75, 30, 0, 600, 575, 3, 3, 301};
  for (std::size_t k = 0; k < std::size(visits); ++k) {
    const std::size_t pos = visits[k];
    if (k % 3 == 2) driven.rebuild(h, 600 - pos);
    driven.advance_to(h, pos);
    driven.correlation_into(got);

    SlidingCorrelation fresh(kSubarray, kWindow);
    fresh.rebuild(h, pos);
    fresh.correlation_into(fresh_r);
    music.smoothed_correlation_into(
        CSpan(h).subspan(pos, static_cast<std::size_t>(kWindow)), direct);
    EXPECT_TRUE(same_bits(got, fresh_r)) << "visit " << k << " pos=" << pos;
    EXPECT_TRUE(same_bits(got, direct)) << "visit " << k << " pos=" << pos;
  }
}

}  // namespace
}  // namespace wivi::core
