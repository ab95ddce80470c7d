// rt::Engine: multi-session determinism (results independent of thread
// count and interleaving), parity with the batch pipeline through the full
// engine path, backpressure accounting, and a concurrent-producer stress
// pass. This binary is what the TSan CI job runs — every synchronisation
// edge in the engine (ring handoff, claim flag, close/finalise, event
// queue) is exercised here under real concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/random.hpp"
#include "src/sim/synthetic.hpp"
#include "src/core/tracker.hpp"
#include "src/rt/engine.hpp"

namespace wivi {
namespace {

/// The pipeline most engine tests run: the image stage plus a counter.
api::PipelineSpec counting_spec(bool emit_columns = true) {
  api::PipelineSpec spec;
  spec.image.emit_columns = emit_columns;
  spec.count = api::CountStage{};
  return spec;
}

/// Lossless ingestion (offer() waits for ring space): exact results.
rt::IngestConfig blocking(std::size_t ring_capacity = 256) {
  return {.ring_capacity = ring_capacity,
          .backpressure = rt::Backpressure::kBlock};
}

std::vector<CVec> make_session_traces(std::size_t sessions, std::size_t len) {
  std::vector<CVec> traces;
  traces.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s)
    traces.push_back(
        sim::synthetic_mover_trace(len, 1000 + s, 0.3 + 0.1 * static_cast<double>(s)));
  return traces;
}

/// Feed every trace through an engine with the given thread count and
/// return each session's final image (chunk sizes vary per session so the
/// chunking itself is part of what must not matter).
std::vector<core::AngleTimeImage> run_engine(
    const std::vector<CVec>& traces, int num_threads,
    rt::Backpressure policy = rt::Backpressure::kBlock,
    std::size_t ring_capacity = 8) {
  rt::Engine::Config ec;
  ec.num_threads = num_threads;
  rt::Engine engine(ec);

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(engine.open_session(
        counting_spec(false),
        {.ring_capacity = ring_capacity, .backpressure = policy}));
  // Round-robin feeding interleaves the sessions like concurrent sensors.
  std::vector<std::size_t> pos(traces.size(), 0);
  bool any = true;
  std::size_t round = 0;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < traces.size(); ++s) {
      if (pos[s] >= traces[s].size()) continue;
      const std::size_t chunk = 16 + 13 * s + 7 * (round % 3);
      const std::size_t len = std::min(chunk, traces[s].size() - pos[s]);
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s]),
             traces[s].begin() + static_cast<std::ptrdiff_t>(pos[s] + len));
      engine.offer(ids[s], std::move(c));
      pos[s] += len;
      any = true;
    }
    ++round;
  }
  for (rt::SessionId id : ids) engine.close_session(id);
  engine.drain();

  std::vector<core::AngleTimeImage> images;
  for (rt::SessionId id : ids) {
    EXPECT_TRUE(engine.stats(id).finished);
    images.push_back(engine.tracker(id).image());
  }
  return images;
}

void expect_images_identical(const core::AngleTimeImage& a,
                             const core::AngleTimeImage& b) {
  ASSERT_EQ(a.num_times(), b.num_times());
  ASSERT_EQ(a.num_angles(), b.num_angles());
  for (std::size_t t = 0; t < a.num_times(); ++t) {
    ASSERT_EQ(a.times_sec[t], b.times_sec[t]);
    ASSERT_EQ(a.model_orders[t], b.model_orders[t]);
    for (std::size_t x = 0; x < a.num_angles(); ++x)
      ASSERT_EQ(a.columns[t][x], b.columns[t][x]);
  }
}

TEST(Engine, MatchesBatchPipelineThroughOneSession) {
  const CVec h = sim::synthetic_mover_trace(1200, 77, 0.5);
  const core::MotionTracker tracker;
  const core::AngleTimeImage batch = tracker.process(h, 0.0);

  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);
  const rt::SessionId id = engine.open_session(counting_spec(), blocking());
  for (std::size_t pos = 0; pos < h.size(); pos += 100) {
    CVec c(h.begin() + static_cast<std::ptrdiff_t>(pos),
           h.begin() +
               static_cast<std::ptrdiff_t>(std::min(pos + 100, h.size())));
    EXPECT_TRUE(engine.offer(id, std::move(c)));
  }
  engine.close_session(id);
  engine.drain();

  expect_images_identical(batch, engine.tracker(id).image());

  // The event stream carries every column exactly once, in order, plus a
  // final kFinished with the batch spatial variance.
  std::vector<rt::Event> events;
  engine.poll(events);
  std::size_t next_col = 0;
  bool finished = false;
  for (const rt::Event& e : events) {
    if (e.type == rt::Event::Type::kColumn) {
      EXPECT_EQ(e.column_index, next_col);
      EXPECT_EQ(e.time_sec, batch.times_sec[next_col]);
      ASSERT_EQ(e.column.size(), batch.num_angles());
      for (std::size_t a = 0; a < e.column.size(); ++a)
        EXPECT_EQ(e.column[a], batch.columns[next_col][a]);
      ++next_col;
    } else if (e.type == rt::Event::Type::kFinished) {
      finished = true;
      EXPECT_EQ(e.spatial_variance, core::spatial_variance(batch));
      EXPECT_EQ(e.columns_seen, batch.num_times());
    }
  }
  EXPECT_EQ(next_col, batch.num_times());
  EXPECT_TRUE(finished);
}

TEST(Engine, ResultsIndependentOfThreadCountAndInterleaving) {
  const auto traces = make_session_traces(5, 900);
  const auto one = run_engine(traces, 1);
  const auto two = run_engine(traces, 2);
  const auto many = run_engine(traces, 7);  // more threads than sessions
  ASSERT_EQ(one.size(), traces.size());
  for (std::size_t s = 0; s < traces.size(); ++s) {
    expect_images_identical(one[s], two[s]);
    expect_images_identical(one[s], many[s]);
    // And each equals the batch pipeline over the same samples.
    const core::MotionTracker tracker;
    expect_images_identical(tracker.process(traces[s], 0.0), one[s]);
  }
}

TEST(Engine, ConcurrentProducersStress) {
  // One producer thread per session feeding chunks of pseudo-random size
  // while the worker pool processes and steals — the TSan target. A couple
  // of sessions use the drop policy with tiny rings so the overflow path
  // runs concurrently too.
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kLen = 700;
  const auto traces = make_session_traces(kSessions, kLen);

  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    api::PipelineSpec spec = counting_spec(s % 2 == 0);
    if (s % 3 == 0) spec.gesture = api::GestureStage{};
    const rt::IngestConfig ingest =
        s < 2 ? rt::IngestConfig{.ring_capacity = 2,
                                 .backpressure = rt::Backpressure::kDropNewest}
              : blocking(4);
    ids.push_back(engine.open_session(std::move(spec), ingest));
  }

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      Rng rng(9000 + s);
      std::size_t pos = 0;
      while (pos < traces[s].size()) {
        const std::size_t chunk =
            1 + static_cast<std::size_t>(rng() % 97);
        const std::size_t len = std::min(chunk, traces[s].size() - pos);
        CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
               traces[s].begin() + static_cast<std::ptrdiff_t>(pos + len));
        engine.offer(ids[s], std::move(c));
        pos += len;
      }
      engine.close_session(ids[s]);
    });
  }
  for (std::thread& t : producers) t.join();
  engine.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto st = engine.stats(ids[s]);
    EXPECT_TRUE(st.finished);
    // Conservation: every offered sample was either processed or dropped.
    EXPECT_EQ(engine.tracker(ids[s]).samples_seen(),
              st.samples_in - st.samples_dropped);
    if (s >= 2) {
      EXPECT_EQ(st.samples_dropped, 0u) << "kBlock must not drop";
    }
    // Processed samples produce exactly the batch column count.
    const std::size_t n = engine.tracker(ids[s]).samples_seen();
    const auto& cfg = engine.tracker(ids[s]).config();
    const auto w = static_cast<std::size_t>(cfg.music.isar.window);
    const std::size_t expect_cols =
        n >= w ? (n - w) / static_cast<std::size_t>(cfg.hop) + 1 : 0;
    EXPECT_EQ(st.columns_out, expect_cols);
  }
}

TEST(Engine, CallbackDeliveryAndPerSessionOrder) {
  const auto traces = make_session_traces(3, 800);
  rt::Engine::Config ec;
  ec.num_threads = 3;
  rt::Engine engine(ec);

  std::mutex mu;
  std::map<rt::SessionId, std::vector<rt::Event>> per_session;
  engine.set_callback([&](rt::Event&& e) {
    std::lock_guard lk(mu);
    per_session[e.session].push_back(std::move(e));
  });

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(engine.open_session(counting_spec(), blocking()));
  for (std::size_t s = 0; s < traces.size(); ++s) {
    for (std::size_t pos = 0; pos < traces[s].size(); pos += 50) {
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
             traces[s].begin() + static_cast<std::ptrdiff_t>(
                                     std::min(pos + 50, traces[s].size())));
      engine.offer(ids[s], std::move(c));
    }
    engine.close_session(ids[s]);
  }
  engine.drain();

  // poll() is a no-op with a callback installed.
  std::vector<rt::Event> polled;
  EXPECT_EQ(engine.poll(polled), 0u);

  for (rt::SessionId id : ids) {
    const auto& events = per_session[id];
    ASSERT_FALSE(events.empty());
    // Columns arrive in index order; the last event is kFinished.
    std::size_t next_col = 0;
    for (const rt::Event& e : events) {
      if (e.type == rt::Event::Type::kColumn) {
        EXPECT_EQ(e.column_index, next_col++);
      }
    }
    EXPECT_EQ(events.back().type, rt::Event::Type::kFinished);
    EXPECT_GT(next_col, 0u);
  }
}

TEST(Engine, ThrowingCallbackFailsOnlyItsSession) {
  const auto traces = make_session_traces(2, 600);
  rt::Engine::Config ec;
  ec.num_threads = 2;
  rt::Engine engine(ec);

  std::mutex mu;
  std::vector<rt::Event> good_events;
  rt::SessionId poison = 0;
  engine.set_callback([&](rt::Event&& e) {
    if (e.session == poison) throw std::runtime_error("downstream exploded");
    std::lock_guard lk(mu);
    good_events.push_back(std::move(e));
  });

  std::vector<rt::SessionId> ids;
  for (std::size_t s = 0; s < traces.size(); ++s)
    ids.push_back(engine.open_session(counting_spec(), blocking()));
  poison = ids[0];
  for (std::size_t s = 0; s < traces.size(); ++s) {
    for (std::size_t pos = 0; pos < traces[s].size(); pos += 64) {
      CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
             traces[s].begin() + static_cast<std::ptrdiff_t>(
                                     std::min(pos + 64, traces[s].size())));
      engine.offer(ids[s], std::move(c));
    }
    engine.close_session(ids[s]);
  }
  // The poisoned session dies on its first event; drain() must still
  // return and the healthy session must be untouched.
  engine.drain();
  EXPECT_TRUE(engine.stats(ids[0]).finished);
  EXPECT_TRUE(engine.stats(ids[1]).finished);

  const core::MotionTracker tracker;
  expect_images_identical(tracker.process(traces[1], 0.0),
                          engine.tracker(ids[1]).image());
  std::lock_guard lk(mu);
  for (const rt::Event& e : good_events) EXPECT_EQ(e.session, ids[1]);
  EXPECT_EQ(good_events.back().type, rt::Event::Type::kFinished);
}

TEST(Engine, DeadSessionNeverEmitsASecondErrorOrAnyLaterEvent) {
  // Error-path lifecycle: once a session has died (kError delivered), no
  // worker may touch it again — in particular a stale pre-claim check must
  // not let a second worker process its still-filling ring and deliver
  // another kError (or any event) for the already-dead id. Poisoned
  // callbacks + concurrent producers + small rings widen the race window;
  // repeated engine lifetimes cover the construction/teardown edges too.
  constexpr std::size_t kSessions = 4;
  constexpr int kRounds = 15;
  const auto traces = make_session_traces(kSessions, 500);

  for (int round = 0; round < kRounds; ++round) {
    rt::Engine::Config ec;
    ec.num_threads = 3;
    ec.chunks_per_claim = 1;  // maximise claim churn
    rt::Engine engine(ec);

    std::mutex mu;
    std::map<rt::SessionId, std::vector<rt::Event::Type>> seen;
    engine.set_callback([&](rt::Event&& e) {
      {
        std::lock_guard lk(mu);
        seen[e.session].push_back(e.type);
      }
      // Every session's first kColumn poisons it.
      if (e.type == rt::Event::Type::kColumn)
        throw std::runtime_error("poisoned consumer");
    });

    std::vector<rt::SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s)
      ids.push_back(engine.open_session(counting_spec(), blocking(2)));
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < kSessions; ++s) {
      producers.emplace_back([&, s] {
        for (std::size_t pos = 0; pos < traces[s].size(); pos += 40) {
          CVec c(traces[s].begin() + static_cast<std::ptrdiff_t>(pos),
                 traces[s].begin() + static_cast<std::ptrdiff_t>(
                                         std::min(pos + 40, traces[s].size())));
          engine.offer(ids[s], std::move(c));
        }
        engine.close_session(ids[s]);
      });
    }
    for (std::thread& t : producers) t.join();
    engine.drain();

    std::lock_guard lk(mu);
    for (rt::SessionId id : ids) {
      EXPECT_TRUE(engine.stats(id).finished);
      const auto& events = seen[id];
      const std::size_t errors = static_cast<std::size_t>(
          std::count(events.begin(), events.end(), rt::Event::Type::kError));
      ASSERT_EQ(errors, 1u) << "session " << id << " round " << round;
      // kError is terminal: nothing may follow it.
      const auto first_err =
          std::find(events.begin(), events.end(), rt::Event::Type::kError);
      EXPECT_EQ(first_err + 1, events.end())
          << "session " << id << " got events after kError";
    }
  }
}

TEST(Engine, RejectsMisuse) {
  rt::Engine engine;  // default config
  EXPECT_THROW((void)engine.stats(0), std::exception);
  const rt::SessionId id = engine.open_session(api::PipelineSpec{});
  engine.close_session(id);
  EXPECT_THROW((void)engine.offer(id, CVec(10)), std::exception);
  engine.drain();
  EXPECT_TRUE(engine.stats(id).finished);
}

TEST(Engine, FullSessionTableRefusesWithATypedOverload) {
  rt::Engine engine({.num_threads = 1, .max_sessions = 2});
  (void)engine.open_session(api::PipelineSpec{});
  (void)engine.open_session(api::PipelineSpec{});
  try {
    (void)engine.open_session(api::PipelineSpec{});
    FAIL() << "a third session fit a two-slot table";
  } catch (const TypedError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverload);
  }
  // A refused open is not an opened session.
  EXPECT_EQ(engine.num_sessions(), 2u);
  EXPECT_EQ(engine.stats().sessions, 2u);
  EXPECT_EQ(engine.snapshot().counter_value("wivi_engine_sessions_opened_total"),
            2u);
}

/// Stream `h` through a fresh blocking session in 100-sample chunks,
/// close it and wait for it to finish.
rt::SessionId stream_to_finish(rt::Engine& engine,
                               const api::PipelineSpec& spec, const CVec& h) {
  const rt::SessionId id = engine.open_session(spec, blocking());
  for (std::size_t pos = 0; pos < h.size(); pos += 100)
    engine.offer(id, CVec(h.begin() + static_cast<std::ptrdiff_t>(pos),
                          h.begin() + static_cast<std::ptrdiff_t>(pos + 100)));
  engine.close_session(id);
  engine.drain();
  return id;
}

TEST(Engine, OpeningASessionReleasesTheOldestFinishedResults) {
  // Sessions finish one at a time, streamed and recorded alternately.
  // Each open moves the image, tracks and gesture decode out of the
  // finished sessions beyond the newest kRetainedResults; their counters,
  // stage statistics and count stay.
  constexpr std::size_t kReleased = 3;
  constexpr std::size_t kTotal = rt::Engine::kRetainedResults + kReleased + 1;
  const CVec h = sim::synthetic_mover_trace(400, 91, 0.5);
  const core::AngleTimeImage batch = core::MotionTracker().process(h, 0.0);
  api::PipelineSpec spec = counting_spec();
  spec.track = api::TrackStage{};
  spec.gesture = api::GestureStage{};
  rt::Engine engine({.num_threads = 2});
  std::vector<rt::SessionId> ids;
  std::vector<api::PipelineStats> at_finish;
  for (std::size_t i = 0; i < kTotal; ++i) {
    ids.push_back(i % 2 == 0 ? engine.run_recorded(spec, h)
                             : stream_to_finish(engine, spec, h));
    at_finish.push_back(engine.pipeline(ids.back()).stats());
    EXPECT_FALSE(engine.gesture_result(ids.back()).matched_output.empty());
  }
  for (std::size_t i = 0; i < kTotal; ++i) {
    const rt::SessionId id = ids[i];
    const api::PipelineStats now = engine.pipeline(id).stats();
    EXPECT_TRUE(engine.stats(id).finished);
    EXPECT_EQ(engine.stats(id).columns_out, batch.num_times()) << i;
    EXPECT_EQ(now.columns_seen, batch.num_times()) << i;
    EXPECT_EQ(now.samples_seen, h.size()) << i;
    EXPECT_EQ(now.columns_seen, at_finish[i].columns_seen) << i;
    EXPECT_EQ(now.samples_seen, at_finish[i].samples_seen) << i;
    EXPECT_EQ(now.stages.size(), at_finish[i].stages.size()) << i;
    EXPECT_GT(engine.pipeline(id).spatial_variance(), 0.0) << i;
    const bool released = i < kReleased;
    EXPECT_EQ(engine.multi_tracker(id).histories().empty(), released) << i;
    EXPECT_EQ(engine.tracker(id).image().num_times(),
              released ? 0u : batch.num_times()) << i;
    EXPECT_EQ(engine.gesture_result(id).matched_output.empty(), released) << i;
    if (!released) {
      EXPECT_EQ(engine.tracker(id).image().columns, batch.columns) << i;
    }
  }
}

TEST(Engine, TakeTracksMovesTheHistoriesOutOfAFinishedPipeline) {
  const CVec h = sim::synthetic_mover_trace(400, 91, 0.5);
  api::PipelineSpec spec = counting_spec(false);
  spec.track = api::TrackStage{};
  api::Session session(spec);
  EXPECT_THROW((void)session.take_tracks(), InvalidArgument);  // still open
  session.run(h);
  const std::vector<track::TrackHistory> before =
      session.multi_tracker().histories();
  ASSERT_FALSE(before.empty());
  const std::vector<track::TrackHistory> taken = session.take_tracks();
  ASSERT_EQ(taken.size(), before.size());
  for (std::size_t i = 0; i < taken.size(); ++i) {
    EXPECT_EQ(taken[i].id, before[i].id);
    EXPECT_EQ(taken[i].angles_deg, before[i].angles_deg);
  }
  EXPECT_TRUE(session.multi_tracker().histories().empty());
  EXPECT_EQ(session.columns_seen(), core::MotionTracker().process(h, 0.0).num_times());
  EXPECT_THROW((void)api::Session(counting_spec()).take_tracks(), InvalidArgument);
}

TEST(Engine, FinishedResultsStayStableWhileLaterSessionsFinish) {
  // A reader holds a finished session's results while the workers finish
  // kRetainedResults later sessions, and reads the counters of one whose
  // results were already released. No open happens meanwhile, so nothing
  // it reads may change (under TSan: nothing it reads is written).
  const CVec h = sim::synthetic_mover_trace(400, 91, 0.5);
  api::PipelineSpec spec = counting_spec(false);
  spec.track = api::TrackStage{};
  rt::Engine engine({.num_threads = 2});
  const rt::SessionId released = stream_to_finish(engine, spec, h);
  for (std::size_t i = 0; i < rt::Engine::kRetainedResults; ++i)
    (void)stream_to_finish(engine, spec, h);
  const rt::SessionId held = stream_to_finish(engine, spec, h);
  ASSERT_EQ(engine.tracker(released).image().num_times(), 0u);
  std::vector<rt::SessionId> later;
  for (std::size_t i = 0; i < rt::Engine::kRetainedResults; ++i)
    later.push_back(engine.open_session(spec, blocking()));

  const std::size_t columns = engine.tracker(held).image().num_times();
  ASSERT_GT(columns, 0u);
  const std::size_t tracks = engine.multi_tracker(held).histories().size();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const api::PipelineStats a = engine.pipeline(released).stats();
      const api::PipelineStats b = engine.pipeline(held).stats();
      const bool ok = a.columns_seen == columns && a.samples_seen == h.size() &&
                      b.columns_seen == columns && b.samples_seen == h.size() &&
                      engine.tracker(held).image().num_times() == columns &&
                      engine.multi_tracker(held).histories().size() == tracks &&
                      engine.stats(held).finished;
      if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t pos = 0; pos < h.size(); pos += 100)
    for (const rt::SessionId id : later)
      engine.offer(id, CVec(h.begin() + static_cast<std::ptrdiff_t>(pos),
                            h.begin() + static_cast<std::ptrdiff_t>(pos + 100)));
  for (const rt::SessionId id : later) engine.close_session(id);
  engine.drain();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (const rt::SessionId id : later)
    EXPECT_EQ(engine.tracker(id).image().num_times(), columns);
  EXPECT_EQ(engine.tracker(held).image().num_times(), columns);
}

}  // namespace
}  // namespace wivi
