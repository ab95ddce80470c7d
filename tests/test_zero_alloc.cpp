// Counting-allocator proof that the hot STFT/MUSIC loops are
// allocation-free once their workspaces are warm (ISSUE 1 acceptance).
//
// The global operator new/delete are replaced with counting versions for
// this binary only; each test warms the path under test once (first calls
// may size workspaces), then asserts the steady-state call performs zero
// heap allocations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "src/common/random.hpp"
#include "src/core/doppler.hpp"
#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/dsp/fft.hpp"
#include "src/linalg/eig.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/scenario.hpp"

namespace {

// Not atomic: these tests are single-threaded, and the counter is only
// read between sequenced statements.
long g_alloc_count = 0;

// Out of line, so the compiler never pairs a call to the replaced
// operator new with the free() of an inlined operator delete: GCC's
// -Wmismatched-new-delete misreads that pair in sanitizer builds.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace wivi {
namespace {

CVec make_trace(std::size_t n) {
  Rng rng(7);
  CVec h(n);
  const core::IsarConfig isar;
  const double step =
      kTwoPi * 2.0 * 0.6 * isar.sample_period_sec / isar.wavelength_m;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = step * static_cast<double>(i);
    h[i] = cdouble{std::cos(p), std::sin(p)} + cdouble{0.4, 0.1} +
           rng.complex_gaussian(1e-4);
  }
  return h;
}

/// R = sum_{i<k} 100 s_i s_i^H + 0.01 I over random s_i (w' = 32): k
/// dominant eigenvalues over a flat noise floor, i.e. model order k.
linalg::CMatrix correlation_of_order(int k, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 32;
  linalg::CMatrix r(n, n);
  CVec s(n);
  for (int src = 0; src < k; ++src) {
    for (auto& v : s) v = rng.complex_gaussian();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) r(i, j) += 100.0 * s[i] * std::conj(s[j]);
  }
  for (std::size_t i = 0; i < n; ++i) r(i, i) = r(i, i).real() + 0.01;
  return r;
}

TEST(ZeroAlloc, FftPlanExecutionNeverAllocates) {
  const dsp::FftPlan plan(64);
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.complex_gaussian();

  const long before = g_alloc_count;
  plan.forward(x);
  plan.inverse(x);
  EXPECT_EQ(g_alloc_count - before, 0);
}

TEST(ZeroAlloc, StftProcessIntoIsAllocationFreeWhenWarm) {
  const CVec h = make_trace(2000);
  const core::DopplerProcessor proc;
  core::DopplerSpectrogram spec;
  proc.process_into(h, spec);  // warm the output buffers

  const long before = g_alloc_count;
  proc.process_into(h, spec);
  EXPECT_EQ(g_alloc_count - before, 0);
}

TEST(ZeroAlloc, MusicPseudospectrumIntoIsAllocationFreeWhenWarm) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  RVec spectrum;
  int order = 0;
  music.pseudospectrum_into(h, angles, spectrum, &order);  // warm

  const long before = g_alloc_count;
  music.pseudospectrum_into(h, angles, spectrum, &order);
  EXPECT_EQ(g_alloc_count - before, 0);
}

TEST(ZeroAlloc, MusicStaysAllocationFreeAsTheModelOrderGrows) {
  // The signal-vector buffer is sized by the model order k; it reserves
  // the max_sources worst case, so warming on order 1 covers every order.
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  const int max_k = music.config().max_sources;
  const linalg::CMatrix order1 = correlation_of_order(1, 21);
  const linalg::CMatrix order4 = correlation_of_order(4, 22);
  const linalg::CMatrix order_max = correlation_of_order(max_k, 23);
  RVec spectrum;
  int order = 0;
  music.pseudospectrum_from_correlation_into(order1, angles, spectrum, &order);
  ASSERT_EQ(order, 1);

  const long before = g_alloc_count;
  int order_a = 0;
  int order_b = 0;
  music.pseudospectrum_from_correlation_into(order4, angles, spectrum, &order_a);
  music.pseudospectrum_from_correlation_into(order_max, angles, spectrum, &order_b);
  EXPECT_EQ(g_alloc_count - before, 0);
  EXPECT_EQ(order_a, 4);
  EXPECT_EQ(order_b, max_k);
}

TEST(ZeroAlloc, FullEigendecompositionIsAllocationFreeWhenWarm) {
  const linalg::CMatrix a = correlation_of_order(3, 24);
  const linalg::CMatrix b = correlation_of_order(9, 25);
  linalg::EigResult out;
  linalg::EigWorkspace ws;
  linalg::hermitian_eig_into(a, out, ws);  // warm

  const long before = g_alloc_count;
  linalg::hermitian_eig_into(b, out, ws);
  linalg::hermitian_eig_into(a, out, ws);
  EXPECT_EQ(g_alloc_count - before, 0);
}

TEST(ZeroAlloc, EigenRotationLogIsReservedBeforeItIsNeeded) {
  // A diagonal matrix needs no Householder reflector and no QL rotation,
  // so warming on it leaves QL's rotation log empty. Decompositions that
  // do rotate (a dense random Hermitian matrix, a scenario world's
  // correlation) must still not allocate: the log reserves the iteration
  // budget's worst case up front rather than growing on demand.
  const std::size_t n = 32;
  linalg::CMatrix diagonal(n, n);
  for (std::size_t i = 0; i < n; ++i) diagonal(i, i) = static_cast<double>(i + 1);
  Rng rng(41);
  linalg::CMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = rng.gaussian();
    for (std::size_t j = i + 1; j < n; ++j) {
      dense(i, j) = rng.complex_gaussian();
      dense(j, i) = std::conj(dense(i, j));
    }
  }
  const std::vector<sim::ScenarioFamily> families = sim::scenario_families();
  const sim::ScenarioCase& sc = families.front().cases.front();
  const CVec h = sim::generate_scenario(sc.spec, sc.seed).h;
  const core::SmoothedMusic music;
  const linalg::CMatrix scenario = music.smoothed_correlation(
      CSpan(h).subspan(h.size() / 2, static_cast<std::size_t>(
                                         music.config().isar.window)));
  const RVec angles = core::angle_grid_deg(1.0);

  // On a fresh thread, so MUSIC's per-thread workspace is warmed by the
  // diagonal matrix alone.
  long allocs = -1;
  std::size_t rotations = 0;
  std::thread([&] {
    linalg::EigResult out;
    linalg::EigWorkspace ws;
    RVec spectrum;
    int order = 0;
    linalg::hermitian_eig_into(diagonal, out, ws);  // warm
    music.pseudospectrum_from_correlation_into(diagonal, angles, spectrum, &order);

    const long before = g_alloc_count;
    linalg::hermitian_eig_into(dense, out, ws);
    rotations = ws.givens.size() / 2;
    linalg::hermitian_eig_into(scenario, out, ws);
    music.pseudospectrum_from_correlation_into(dense, angles, spectrum, &order);
    music.pseudospectrum_from_correlation_into(scenario, angles, spectrum, &order);
    allocs = g_alloc_count - before;
  }).join();
  EXPECT_EQ(allocs, 0);
  EXPECT_GT(rotations, n);
}

TEST(ZeroAlloc, ColumnDoesNotDependOnTheThreadsPreviousColumn) {
  // The per-thread MUSIC workspace is shared by every estimator on the
  // thread; a column must be bit-identical whether it is the thread's
  // first or follows a matrix of a different model order.
  const RVec angles = core::angle_grid_deg(1.0);
  const linalg::CMatrix target = correlation_of_order(3, 31);
  auto column_after = [&](const linalg::CMatrix* before) {
    const core::SmoothedMusic music;
    RVec spectrum;
    int order = 0;
    if (before != nullptr)
      music.pseudospectrum_from_correlation_into(*before, angles, spectrum, &order);
    music.pseudospectrum_from_correlation_into(target, angles, spectrum, &order);
    EXPECT_EQ(order, 3);
    return spectrum;
  };
  auto on_fresh_thread = [&](const linalg::CMatrix* before) {
    RVec out;
    std::thread([&] { out = column_after(before); }).join();
    return out;
  };
  const linalg::CMatrix higher = correlation_of_order(12, 32);
  const linalg::CMatrix lower = correlation_of_order(1, 33);
  const RVec fresh = on_fresh_thread(nullptr);
  ASSERT_EQ(fresh.size(), angles.size());
  for (const RVec& other : {on_fresh_thread(&higher), on_fresh_thread(&lower),
                            column_after(&higher), column_after(&lower)}) {
    ASSERT_EQ(other.size(), fresh.size());
    EXPECT_EQ(std::memcmp(other.data(), fresh.data(), fresh.size() * sizeof(double)),
              0);
  }
}

TEST(ZeroAlloc, PlanRegistryHitAcquisitionIsAllocationFree) {
  // Warm: make both artifacts resident in the shared registry.
  const auto warm_plan = dsp::acquire_fft_plan(64);
  const core::IsarConfig isar;
  const RVec angles = core::angle_grid_deg(1.0);
  const auto warm_steering = core::acquire_steering(isar, angles, 32, true);

  // A cache hit is a hash + probe + list splice + handle copy — no heap.
  const long before = g_alloc_count;
  const auto plan = dsp::acquire_fft_plan(64);
  const auto steering = core::acquire_steering(isar, angles, 32, true);
  EXPECT_EQ(g_alloc_count - before, 0);
  EXPECT_EQ(plan.get(), warm_plan.get());
  EXPECT_EQ(steering.get(), warm_steering.get());
}

TEST(ZeroAlloc, SteeringEnsureIsAllocationFreeOnceResident) {
  const core::IsarConfig isar;
  const RVec angles = core::angle_grid_deg(1.0);
  core::SteeringMatrix warm;
  warm.ensure(isar, angles, 32, true);  // table resident, handle held

  core::SteeringMatrix fresh;
  const long before = g_alloc_count;
  warm.ensure(isar, angles, 32, true);   // held-handle field compare
  fresh.ensure(isar, angles, 32, true);  // registry-hit handle copy
  EXPECT_EQ(g_alloc_count - before, 0);
  EXPECT_EQ(fresh.table().get(), warm.table().get());
}

TEST(ZeroAlloc, SlidingCorrelationStreamingLoopIsAllocationFree) {
  const CVec h = make_trace(2000);
  const core::SmoothedMusic music;
  const int w = music.config().isar.window;
  const RVec angles = core::angle_grid_deg(1.0);

  core::SlidingCorrelation sliding(music.config().subarray, w);
  linalg::CMatrix r;
  RVec spectrum;
  int order = 0;
  // Warm: first column sizes every workspace.
  sliding.advance_to(h, 0);
  sliding.correlation_into(r);
  music.pseudospectrum_from_correlation_into(r, angles, spectrum, &order);

  // Steady state: the whole per-column chain — slide, normalise,
  // eigendecompose, project — must not touch the heap.
  const long before = g_alloc_count;
  for (std::size_t pos = 25; pos + static_cast<std::size_t>(w) <= h.size();
       pos += 25) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    music.pseudospectrum_from_correlation_into(r, angles, spectrum, &order);
  }
  EXPECT_EQ(g_alloc_count - before, 0);
}

}  // namespace
}  // namespace wivi
