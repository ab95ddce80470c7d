// Processing-cost microbenchmarks (google-benchmark).
//
// Reference point from the paper (§7.1): Matlab post-processing of a
// 25-second trace took 1.0564 s on a 2012 i7; `FullTraceProcessing/25s`
// below is the direct analogue in this implementation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/api/session.hpp"
#include "src/common/random.hpp"
#include "src/core/nulling.hpp"
#include "src/core/tracker.hpp"
#include "src/dsp/fft.hpp"
#include "src/linalg/eig.hpp"
#include "src/par/image_builder.hpp"
#include "src/sim/evaluate.hpp"
#include "src/sim/link.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/synthetic.hpp"

using namespace wivi;

namespace {

CVec make_trace(std::size_t n) { return sim::synthetic_mover_trace(n); }

void BM_Fft64(benchmark::State& state) {
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.complex_gaussian();
  for (auto _ : state) {
    dsp::fft(x);
    dsp::ifft(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_Fft64);

void BM_HermitianEig(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  linalg::CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.gaussian();
    for (std::size_t j = i + 1; j < n; ++j) {
      const cdouble v = rng.complex_gaussian();
      a(i, j) = v;
      a(j, i) = std::conj(v);
    }
  }
  for (auto _ : state) {
    const auto r = linalg::hermitian_eig(a);
    benchmark::DoNotOptimize(r.values.data());
  }
}
BENCHMARK(BM_HermitianEig)->Arg(16)->Arg(32)->Arg(64);

void BM_SignalSubspaceEig(benchmark::State& state) {
  // The eigen step as MUSIC runs it per column: every eigenvalue, the
  // model order, and only the k signal eigenvectors. Cycles over every
  // column's correlation of one world from each of the walker, crossing,
  // count and clutter families (388 columns, mean k ~3.5).
  const core::MotionTracker::Config cfg;
  const core::SmoothedMusic music(cfg.music);
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  std::vector<linalg::CMatrix> corr;
  for (const sim::ScenarioFamily& fam : sim::scenario_families()) {
    if (fam.name != "walker" && fam.name != "crossing" && fam.name != "count" &&
        fam.name != "clutter")
      continue;
    const sim::ScenarioCase& sc = fam.cases.front();
    const CVec h = sim::generate_scenario(sc.spec, sc.seed).h;
    for (std::size_t pos = 0; pos + w <= h.size(); pos += hop)
      corr.push_back(music.smoothed_correlation(CSpan(h).subspan(pos, w)));
  }
  linalg::EigWorkspace ws;
  CVec rows(static_cast<std::size_t>(cfg.music.max_sources * cfg.music.subarray));
  std::size_t c = 0;
  double orders = 0.0;
  for (auto _ : state) {
    const RSpan values = linalg::hermitian_eigenvalues(corr[c], ws);
    const int k = music.estimate_model_order(values);
    linalg::leading_eigenvectors(ws, static_cast<std::size_t>(k), rows);
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
    orders += k;
    c = c + 1 == corr.size() ? 0 : c + 1;
  }
  state.counters["mean_k"] = benchmark::Counter(
      orders, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SignalSubspaceEig);

void BM_SmoothedCorrelation(benchmark::State& state) {
  // One column's Eq. 5.2 correlation (w = 100, w' = 32) in streaming
  // order: each iteration moves the window one 25-sample hop along a 25 s
  // trace, wrapping to the start at its end.
  const CVec h = make_trace(static_cast<std::size_t>(25 * 312.5));
  const core::MotionTracker::Config cfg;
  const auto w = static_cast<std::size_t>(cfg.music.isar.window);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  core::SlidingCorrelation sliding(cfg.music.subarray, cfg.music.isar.window);
  linalg::CMatrix r;
  std::size_t pos = 0;
  for (auto _ : state) {
    sliding.advance_to(h, pos);
    sliding.correlation_into(r);
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
    pos += hop;
    if (pos + w > h.size()) pos = 0;
  }
}
BENCHMARK(BM_SmoothedCorrelation);

void BM_Pseudospectrum(benchmark::State& state) {
  const CVec h = make_trace(100);
  const core::SmoothedMusic music;
  const RVec angles = core::angle_grid_deg(1.0);
  for (auto _ : state) {
    const RVec spec = music.pseudospectrum(h, angles);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_Pseudospectrum);

void BM_FullTraceProcessing(benchmark::State& state) {
  // The §7.1 reference: smoothed MUSIC over a whole captured trace.
  const double seconds = static_cast<double>(state.range(0));
  const CVec h = make_trace(static_cast<std::size_t>(seconds * 312.5));
  const core::MotionTracker tracker;
  for (auto _ : state) {
    const core::AngleTimeImage img = tracker.process(h);
    benchmark::DoNotOptimize(img.columns.data());
  }
  state.SetLabel("paper: 1.0564 s per 25 s trace in Matlab (2012 i7)");
}
BENCHMARK(BM_FullTraceProcessing)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_ParallelImageBuild(benchmark::State& state) {
  // The same 25 s trace through the column-sharded builder, thread count
  // as the argument. One persistent builder: pool and per-worker
  // workspaces are reused across iterations like a batch service would.
  // The --threads flag appends an extra point to this sweep; on a 1-core
  // container the whole curve is flat by construction.
  const CVec h = make_trace(static_cast<std::size_t>(25 * 312.5));
  const par::ParallelImageBuilder builder(core::MotionTracker::Config{},
                                          static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const core::AngleTimeImage img = builder.build(h);
    benchmark::DoNotOptimize(img.columns.data());
  }
  state.SetLabel("BM_FullTraceProcessing/25s sharded over a par::ThreadPool");
}
BENCHMARK(BM_ParallelImageBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_OfflineRun(benchmark::State& state) {
  // The offline path end to end: Session::run(trace, Parallelism{N}) over
  // the same 25 s trace with column events, the track stage and a
  // callback sink, a fresh session (and pool) per call like
  // rt::Engine::run_recorded. The calling thread consumes each finished
  // prefix of the image while the other workers build the rest, so past
  // one thread the serial stages hide under the build (DESIGN.md §7).
  const CVec h = make_trace(static_cast<std::size_t>(25 * 312.5));
  api::PipelineSpec spec;
  spec.track = api::TrackStage{};
  const api::Parallelism parallel{static_cast<int>(state.range(0))};
  std::size_t events = 0;
  for (auto _ : state) {
    api::Session session(spec);
    session.set_callback([&events](api::Event&&) { ++events; });
    session.run(h, parallel);
    benchmark::DoNotOptimize(events);
  }
  state.SetLabel("Session::run: columns + tracks, callback sink");
}
BENCHMARK(BM_OfflineRun)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_NullingProcedure(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    sim::Scene scene(sim::stata_conference_a(), sim::default_calibration(), rng);
    sim::SimulatedMimoLink link(scene, rng.fork());
    const core::Nuller nuller;
    state.ResumeTiming();
    const auto r = nuller.run(link);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_NullingProcedure)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strips a `--threads N` (or
// `--threads=N`) flag before google-benchmark sees argv and registers one
// extra BM_ParallelImageBuild point at exactly N threads. CI runs
//   bench_perf --threads 4 --benchmark_format=json
// to produce BENCH_parallel.json.
int main(int argc, char** argv) {
  int threads = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atoi(arg + 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (0 = hardware)\n");
    return 1;
  }
  // The static sweep already covers 1/2/4/8 — only register an extra
  // point for other counts, so `--threads 4` doesn't run the ~25 s-trace
  // build twice and duplicate rows in the recorded JSON.
  if (threads > 0 && threads != 1 && threads != 2 && threads != 4 &&
      threads != 8) {
    benchmark::RegisterBenchmark("BM_ParallelImageBuild/threads",
                                 [](benchmark::State& st) {
                                   BM_ParallelImageBuild(st);
                                 })
        ->Arg(threads)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
