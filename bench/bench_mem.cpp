// Memory-footprint figure generator: bytes-per-session, idle and active
// (committed as BENCH_mem.json; gated by scripts/check_mem.py in the
// mem-footprint CI job).
//
// ROADMAP item 3 / ISSUE 9: a wivi::Session must be cheap enough to run
// 10k+ of them, which means per-session memory has to be the *mutable
// workspace only* — the immutable plans (steering matrix, FFT twiddles,
// window tables, angle grids) live once in the shared plan registry. This
// bench measures the marginal heap cost of one more session directly: the
// global operator new/delete are replaced with byte-counting versions
// (glibc malloc_usable_size attributes the real block size, so container
// slack is counted honestly) and N same-config sessions are constructed
// (idle) and then fed a short stream (active).
//
// A warmup session runs first so process-wide state — the plan registry's
// artifacts and the per-thread MUSIC scratch — is built before measuring;
// that state is O(1) in the session count (reported separately as
// process_shared_bytes) and must not be attributed to the marginal
// session. Output is one JSON object on stdout:
//
//   { "samples_pushed": ...,  "process_shared_bytes": ...,
//     "idle_bytes_per_session":   {"1": ..., "100": ..., "1000": ...},
//     "active_bytes_per_session": {"1": ..., "100": ..., "1000": ...} }
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/constants.hpp"
#include "src/common/random.hpp"

namespace {

// Not atomic: this bench is single-threaded.
long long g_live_bytes = 0;

void* count_alloc(void* p) {
  if (p != nullptr) g_live_bytes += static_cast<long long>(malloc_usable_size(p));
  return p;
}

// Out of line, so the compiler never pairs a call to the replaced
// operator new with the free() of an inlined operator delete: GCC's
// -Wmismatched-new-delete misreads that pair in sanitizer builds.
[[gnu::noinline]] void count_free(void* p) {
  if (p != nullptr) g_live_bytes -= static_cast<long long>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = count_alloc(std::malloc(size))) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = count_alloc(std::malloc(size))) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = count_alloc(
          std::aligned_alloc(static_cast<std::size_t>(align), size)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = count_alloc(
          std::aligned_alloc(static_cast<std::size_t>(align), size)))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { count_free(p); }
void operator delete[](void* p) noexcept { count_free(p); }
void operator delete(void* p, std::size_t) noexcept { count_free(p); }
void operator delete[](void* p, std::size_t) noexcept { count_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { count_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { count_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  count_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  count_free(p);
}

namespace wivi {
namespace {

// One mover at 0.6 m/s plus a static reflector — enough structure that the
// pipeline does real work; the values themselves do not matter here.
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

api::PipelineSpec make_spec() {
  api::PipelineSpec spec;
  // The default image stage, with column events off so the bench measures
  // pipeline state, not an unpolled event queue.
  spec.image.emit_columns = false;
  return spec;
}

struct Figures {
  long long idle = 0;    // bytes per session, constructed but never fed
  long long active = 0;  // bytes per session after pushing the trace
};

Figures measure(std::size_t n, const CVec& trace) {
  const long long before = g_live_bytes;
  std::vector<std::unique_ptr<api::Session>> sessions;
  sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    sessions.push_back(std::make_unique<api::Session>(make_spec()));
  Figures fig;
  fig.idle = (g_live_bytes - before) / static_cast<long long>(n);
  for (auto& s : sessions) s->push(trace);
  fig.active = (g_live_bytes - before) / static_cast<long long>(n);
  return fig;
}

int run() {
  // ~5 image columns per session: window 100 + 4 hops of 25.
  const CVec trace = make_trace(200);

  // Warmup: builds every shared plan and the per-thread scratch once.
  const long long at_start = g_live_bytes;
  {
    api::Session warm(make_spec());
    warm.push(trace);
    warm.finish();
  }
  const long long shared = g_live_bytes - at_start;

  const std::size_t counts[] = {1, 100, 1000};
  Figures figs[3];
  for (int i = 0; i < 3; ++i) figs[i] = measure(counts[i], trace);

  std::printf("{\n");
  std::printf("  \"samples_pushed\": %zu,\n", trace.size());
  std::printf("  \"process_shared_bytes\": %lld,\n", shared);
  std::printf("  \"idle_bytes_per_session\": {");
  for (int i = 0; i < 3; ++i)
    std::printf("%s\"%zu\": %lld", i ? ", " : "", counts[i], figs[i].idle);
  std::printf("},\n");
  std::printf("  \"active_bytes_per_session\": {");
  for (int i = 0; i < 3; ++i)
    std::printf("%s\"%zu\": %lld", i ? ", " : "", counts[i], figs[i].active);
  std::printf("}\n");
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace wivi

int main() { return wivi::run(); }
