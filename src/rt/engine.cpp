#include "src/rt/engine.hpp"

#include <algorithm>
#include <chrono>
#include <type_traits>
#include <variant>

#include "src/common/error.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/trace.hpp"
#include "src/plan/registry.hpp"

namespace wivi::rt {

namespace {

/// Monotonic now in nanoseconds — the watchdog/backoff/latency time base.
/// Routed through obs::now_ns so tests can install an obs::FakeClock and
/// drive watchdog deadlines deterministically.
std::int64_t now_ns() noexcept { return obs::now_ns(); }

std::int64_t sec_to_ns(double sec) noexcept {
  return static_cast<std::int64_t>(sec * 1e9);
}

}  // namespace

Event to_legacy_event(SessionId session, api::Event e) {
  Event out;
  out.session = session;
  std::visit(
      [&out](auto&& ev) {
        using T = std::decay_t<decltype(ev)>;
        if constexpr (std::is_same_v<T, api::ColumnEvent>) {
          out.type = Event::Type::kColumn;
          out.column_index = ev.column_index;
          out.time_sec = ev.time_sec;
          out.column = std::move(ev.column);
          out.model_order = ev.model_order;
        } else if constexpr (std::is_same_v<T, api::TracksEvent>) {
          out.type = Event::Type::kTracks;
          out.tracks = std::move(ev.tracks);
          out.num_confirmed = ev.num_confirmed;
          out.columns_seen = ev.columns_seen;
        } else if constexpr (std::is_same_v<T, api::BitsEvent>) {
          out.type = Event::Type::kBits;
          out.bits = std::move(ev.bits);
        } else if constexpr (std::is_same_v<T, api::CountEvent>) {
          out.type = Event::Type::kCount;
          out.spatial_variance = ev.spatial_variance;
          out.columns_seen = ev.columns_seen;
        } else if constexpr (std::is_same_v<T, api::FinishedEvent>) {
          out.type = Event::Type::kFinished;
          out.columns_seen = ev.columns_seen;
          out.spatial_variance = ev.spatial_variance;
          out.num_confirmed = ev.num_confirmed;
        } else if constexpr (std::is_same_v<T, api::ErrorEvent>) {
          out.type = Event::Type::kError;
          out.error = std::move(ev.message);
          out.code = ev.code;
        } else if constexpr (std::is_same_v<T, api::StalledEvent>) {
          out.type = Event::Type::kStalled;
          out.silent_sec = ev.silent_sec;
          out.chunks_in = ev.chunks_seen;
        } else if constexpr (std::is_same_v<T, api::RecoveredEvent>) {
          out.type = Event::Type::kRecovered;
          out.restarts = ev.restarts;
          out.code = ev.cause;
          out.error = std::move(ev.message);
        } else if constexpr (std::is_same_v<T, api::StatsEvent>) {
          out.type = Event::Type::kStats;
          out.stats = std::move(ev);
        } else {
          static_assert(std::is_same_v<T, api::OverloadEvent>);
          out.type = Event::Type::kOverload;
          out.degraded = ev.degraded;
          out.fidelity = ev.fidelity;
          out.chunks_dropped = ev.chunks_dropped;
          out.samples_dropped = ev.samples_dropped;
        }
      },
      std::move(e));
  return out;
}

api::Event to_api_event(const Event& e) {
  switch (e.type) {
    case Event::Type::kColumn:
      return api::ColumnEvent{e.column_index, e.time_sec, e.column,
                              e.model_order};
    case Event::Type::kTracks:
      return api::TracksEvent{e.tracks, e.num_confirmed, e.columns_seen};
    case Event::Type::kBits:
      return api::BitsEvent{e.bits};
    case Event::Type::kCount:
      return api::CountEvent{e.spatial_variance, e.columns_seen};
    case Event::Type::kFinished:
      return api::FinishedEvent{e.columns_seen, e.spatial_variance,
                                e.num_confirmed};
    case Event::Type::kError:
      return api::ErrorEvent{e.error, e.code};
    case Event::Type::kStalled:
      return api::StalledEvent{e.silent_sec, e.chunks_in};
    case Event::Type::kRecovered:
      return api::RecoveredEvent{e.restarts, e.code, e.error};
    case Event::Type::kOverload:
      return api::OverloadEvent{e.degraded, e.fidelity, e.chunks_dropped,
                                e.samples_dropped};
    case Event::Type::kStats:
      return e.stats;
  }
  throw InvalidArgument("unknown legacy event type");
}

Engine::Metrics::Metrics(obs::Registry& r)
    : events(r.counter("wivi_engine_events_total")),
      stalls(r.counter("wivi_engine_stalls_total")),
      timeouts(r.counter("wivi_engine_timeouts_total")),
      restarts(r.counter("wivi_engine_restarts_total")),
      overload_transitions(
          r.counter("wivi_engine_overload_transitions_total")),
      ingress_wait_ns(r.histogram("wivi_ingress_wait_ns")),
      chunk_latency_ns(r.histogram("wivi_chunk_latency_ns")) {}

Engine::Session::Session(Engine* engine, SessionId id_,
                         api::PipelineSpec spec_, IngestConfig ingest_)
    : id(id_),
      ingest(std::move(ingest_)),
      spec(std::move(spec_)),
      ring(ingest.ring_capacity) {
  arm_pipeline(engine);
  const std::int64_t now = now_ns();
  last_activity_ns.store(now, std::memory_order_relaxed);
  if (ingest.stats_interval_sec > 0.0)
    next_stats_ns.store(now + sec_to_ns(ingest.stats_interval_sec),
                        std::memory_order_relaxed);
}

void Engine::Session::arm_pipeline(Engine* engine) {
  pipeline.emplace(api::PipelineSpec(spec));
  // Every typed event the pipeline emits goes out through the engine's one
  // delivery function. Runs under the session's claim flag (the pipeline
  // is only driven from there), so delivery order stays per-session
  // sequential.
  pipeline->set_callback(
      [engine, this](api::Event&& e) { engine->deliver(*this, std::move(e)); });
  if (ingest.fault_hook) pipeline->set_fault_hook(ingest.fault_hook);
  const int f = fidelity.load(std::memory_order_relaxed);
  if (f > 1) pipeline->set_fidelity(f);
}

Engine::Engine() : Engine(Config{}) {}

Engine::Engine(Config cfg) : cfg_(cfg) {
  WIVI_REQUIRE(cfg_.max_sessions >= 1, "max_sessions must be >= 1");
  WIVI_REQUIRE(cfg_.chunks_per_claim >= 1, "chunks_per_claim must be >= 1");
  num_threads_ = cfg_.num_threads > 0
                     ? cfg_.num_threads
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency()));
  sessions_.resize(cfg_.max_sessions);
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

Engine::~Engine() {
  stop_.store(true, std::memory_order_release);
  wake_workers();
  for (std::thread& t : workers_) t.join();
}

Engine::Session& Engine::session(SessionId id) const {
  WIVI_REQUIRE(id < session_count_.load(std::memory_order_acquire),
               "unknown session id");
  return *sessions_[id];
}

SessionId Engine::open_session(api::PipelineSpec spec, IngestConfig ingest) {
  WIVI_REQUIRE(ingest.restart.max_restarts >= 0,
               "restart.max_restarts must be >= 0");
  WIVI_REQUIRE(ingest.restart.backoff_sec >= 0.0,
               "restart.backoff_sec must be >= 0");
  WIVI_REQUIRE(ingest.watchdog.stall_timeout_sec >= 0.0,
               "watchdog.stall_timeout_sec must be >= 0");
  WIVI_REQUIRE(!ingest.overload.degrade ||
                   (ingest.overload.degraded_fidelity >= 2 &&
                    ingest.overload.degrade_after_drops >= 1 &&
                    ingest.overload.restore_after_chunks >= 1),
               "overload policy: degraded_fidelity >= 2 and both "
               "thresholds >= 1");
  WIVI_REQUIRE(ingest.stats_interval_sec >= 0.0,
               "stats_interval_sec must be >= 0");
  release_old_results();
  std::lock_guard lk(register_mu_);
  const std::size_t n = session_count_.load(std::memory_order_relaxed);
  if (n >= cfg_.max_sessions)
    throw TypedError(ErrorCode::kOverload, "session table full");
  sessions_[n] = std::make_unique<Session>(this, static_cast<SessionId>(n),
                                           std::move(spec), std::move(ingest));
  session_count_.store(n + 1, std::memory_order_release);
  return static_cast<SessionId>(n);
}

SessionId Engine::run_recorded(api::PipelineSpec spec, CSpan trace) {
  const SessionId id = open_session(std::move(spec), IngestConfig{});
  Session& s = session(id);
  // Claim the session for this thread. It is freshly opened with an empty
  // ring and no close flag, so no worker ever contends for it — the
  // exchange documents that this thread now plays the worker role.
  while (s.busy.exchange(true, std::memory_order_acquire))
    std::this_thread::yield();
  s.chunks_in.fetch_add(1, std::memory_order_relaxed);
  s.samples_in.fetch_add(trace.size(), std::memory_order_relaxed);
  try {
    s.pipeline->run(trace, api::Parallelism{num_threads_});
    s.columns_out.store(s.pipeline->columns_seen(),
                        std::memory_order_relaxed);
    s.samples_processed.fetch_add(trace.size(), std::memory_order_relaxed);
    s.closed.store(true, std::memory_order_release);
    retain(s);
    s.finished.store(true, std::memory_order_release);
  } catch (const TypedError& e) {
    // Includes an InputGuard rejection of the whole trace: in recorded
    // mode the trace *is* the stream, so a rejected trace is terminal.
    s.closed.store(true, std::memory_order_release);
    fail_session(s, e.code(), e.what());
  } catch (const std::exception& e) {
    s.closed.store(true, std::memory_order_release);
    fail_session(s, ErrorCode::kStageFailure, e.what());
  } catch (...) {
    s.closed.store(true, std::memory_order_release);
    fail_session(s, ErrorCode::kStageFailure, "unknown exception");
  }
  s.busy.store(false, std::memory_order_release);
  return id;
}

bool Engine::offer(SessionId id, CVec chunk) {
  Session& s = session(id);
  WIVI_REQUIRE(!s.closed.load(std::memory_order_relaxed),
               "offer() on a closed session");
  const std::uint64_t samples = chunk.size();
  const std::int64_t now = now_ns();
  s.chunks_in.fetch_add(1, std::memory_order_relaxed);
  s.samples_in.fetch_add(samples, std::memory_order_relaxed);
  // Feed the watchdog: any offer — accepted or dropped — is proof the
  // producer is alive, and re-arms the one-shot kStalled advisory.
  s.last_activity_ns.store(now, std::memory_order_relaxed);
  s.stall_flagged.store(false, std::memory_order_relaxed);
  // A finished session (failed, timed out, restarts exhausted) has no
  // consumer left; pushing to its ring would strand the chunk outside
  // every counter, so count it as a drop up front.
  if (s.finished.load(std::memory_order_acquire)) {
    s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
    s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
    return false;
  }

  Ingested in{std::move(chunk), now};
  if (s.ingest.backpressure == Backpressure::kBlock) {
    while (!s.ring.try_push(std::move(in))) {
      // A stopped engine — or a failed (finished) session, whose ring no
      // worker will ever drain again — would leave this loop spinning
      // forever; fall through to the drop path instead.
      if (stop_.load(std::memory_order_acquire) ||
          s.finished.load(std::memory_order_acquire)) {
        s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
        s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
        return false;
      }
      wake_workers();
      std::this_thread::yield();
    }
    wake_workers();
    return true;
  }
  if (!s.ring.try_push(std::move(in))) {
    s.chunks_dropped.fetch_add(1, std::memory_order_relaxed);
    s.samples_dropped.fetch_add(samples, std::memory_order_relaxed);
    return false;
  }
  wake_workers();
  return true;
}

void Engine::close_session(SessionId id) {
  session(id).closed.store(true, std::memory_order_release);
  wake_workers();
}

void Engine::set_callback(std::function<void(Event&&)> cb) {
  WIVI_REQUIRE(session_count_.load(std::memory_order_acquire) == 0,
               "install the callback before opening sessions");
  callback_ = std::move(cb);
}

/// The one delivery function: the pipeline's own events and the engine's
/// health events all leave through here (under the session's claim flag),
/// flattened into the legacy Event. Terminal-kind events additionally
/// carry the session's cumulative loss counters.
void Engine::deliver(Session& s, api::Event&& e) {
  if (const auto* b = std::get_if<api::BitsEvent>(&e))
    s.bits_out.fetch_add(b->bits.size(), std::memory_order_relaxed);
  Event out = to_legacy_event(s.id, std::move(e));
  if (out.type == Event::Type::kFinished || out.type == Event::Type::kError) {
    out.chunks_dropped = s.chunks_dropped.load(std::memory_order_relaxed);
    out.samples_dropped = s.samples_dropped.load(std::memory_order_relaxed);
    out.chunks_rejected = s.chunks_rejected.load(std::memory_order_relaxed);
  }
  m_.events.add();
  if (callback_) {
    callback_(std::move(out));
    return;
  }
  std::lock_guard lk(events_mu_);
  events_.push_back(std::move(out));
}

std::size_t Engine::poll(std::vector<Event>& out) {
  std::lock_guard lk(events_mu_);
  const std::size_t n = events_.size();
  if (n > 0) {
    out.insert(out.end(), std::make_move_iterator(events_.begin()),
               std::make_move_iterator(events_.end()));
    events_.clear();
  }
  return n;
}

SessionStats Engine::stats(SessionId id) const {
  const Session& s = session(id);
  SessionStats st;
  st.chunks_in = s.chunks_in.load(std::memory_order_relaxed);
  st.samples_in = s.samples_in.load(std::memory_order_relaxed);
  st.chunks_dropped = s.chunks_dropped.load(std::memory_order_relaxed);
  st.samples_dropped = s.samples_dropped.load(std::memory_order_relaxed);
  st.chunks_rejected = s.chunks_rejected.load(std::memory_order_relaxed);
  st.samples_rejected = s.samples_rejected.load(std::memory_order_relaxed);
  st.columns_out = s.columns_out.load(std::memory_order_relaxed);
  st.bits_out = s.bits_out.load(std::memory_order_relaxed);
  st.restarts = s.restarts.load(std::memory_order_relaxed);
  st.fidelity = s.fidelity.load(std::memory_order_relaxed);
  st.stalled = s.stall_flagged.load(std::memory_order_relaxed);
  st.closed = s.closed.load(std::memory_order_acquire);
  st.finished = s.finished.load(std::memory_order_acquire);
  st.latency = s.latency.snapshot();
  return st;
}

Engine::EngineStats Engine::stats() const {
  EngineStats st;
  st.events_out = m_.events.value();
  st.stalls = m_.stalls.value();
  st.timeouts = m_.timeouts.value();
  st.restarts = m_.restarts.value();
  st.overload_transitions = m_.overload_transitions.value();
  // The session table and the per-session atomics are the only record
  // of these counts (always on, whatever WIVI_OBS says); summing them on
  // read is the one aggregation snapshot() exports too.
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  st.sessions = n;
  for (std::size_t i = 0; i < n; ++i) {
    const Session& s = *sessions_[i];
    st.sessions_finished += s.finished.load(std::memory_order_acquire) ? 1 : 0;
    st.chunks_in += s.chunks_in.load(std::memory_order_relaxed);
    st.samples_in += s.samples_in.load(std::memory_order_relaxed);
    st.chunks_dropped += s.chunks_dropped.load(std::memory_order_relaxed);
    st.samples_dropped += s.samples_dropped.load(std::memory_order_relaxed);
    st.chunks_rejected += s.chunks_rejected.load(std::memory_order_relaxed);
    st.samples_rejected += s.samples_rejected.load(std::memory_order_relaxed);
    st.samples_processed += s.samples_processed.load(std::memory_order_relaxed);
    st.samples_lost += s.samples_lost.load(std::memory_order_relaxed);
    st.columns_out += s.columns_out.load(std::memory_order_relaxed);
    st.bits_out += s.bits_out.load(std::memory_order_relaxed);
  }
  const plan::Stats ps = plan::registry().stats();
  st.plan_hits = ps.hits;
  st.plan_misses = ps.misses;
  st.plan_builds = ps.builds;
  st.plan_evictions = ps.evictions;
  st.plan_ghost_hits = ps.ghost_hits;
  st.plan_resident_plans = ps.resident_plans;
  st.plan_resident_bytes = ps.resident_bytes;
  st.ingress_wait = m_.ingress_wait_ns.snapshot();
  st.chunk_latency = m_.chunk_latency_ns.snapshot();
  return st;
}

obs::Snapshot Engine::snapshot() const {
  obs::Snapshot snap = registry_.snapshot();
  snap.source = "wivi::rt::Engine";
  // The per-session sums come from stats(), so the two surfaces cannot
  // disagree.
  const EngineStats st = stats();
  snap.add_counter("wivi_engine_sessions_opened_total", st.sessions);
  snap.add_counter("wivi_engine_sessions_finished_total", st.sessions_finished);
  snap.add_counter("wivi_engine_chunks_in_total", st.chunks_in);
  snap.add_counter("wivi_engine_samples_in_total", st.samples_in);
  snap.add_counter("wivi_engine_chunks_dropped_total", st.chunks_dropped);
  snap.add_counter("wivi_engine_samples_dropped_total", st.samples_dropped);
  snap.add_counter("wivi_engine_chunks_rejected_total", st.chunks_rejected);
  snap.add_counter("wivi_engine_samples_rejected_total", st.samples_rejected);
  snap.add_counter("wivi_engine_samples_processed_total", st.samples_processed);
  snap.add_counter("wivi_engine_samples_lost_total", st.samples_lost);
  snap.add_counter("wivi_engine_columns_total", st.columns_out);
  snap.add_counter("wivi_engine_bits_total", st.bits_out);
  // Ring cursor sums: the rings count for themselves, so recording costs
  // the hot path nothing.
  std::uint64_t pushes = 0, pops = 0, drops = 0;
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    pushes += sessions_[i]->ring.pushes();
    pops += sessions_[i]->ring.pops();
    drops += sessions_[i]->ring.drops();
  }
  snap.add_counter("wivi_ring_pushes_total", pushes);
  snap.add_counter("wivi_ring_pops_total", pops);
  snap.add_counter("wivi_ring_drops_total", drops);
  // Shared-plan registry: process-wide cache counters plus the residency
  // gauges (counters and gauges share the scalar slot; see obs::Snapshot).
  snap.add_counter("wivi_plan_hits_total", st.plan_hits);
  snap.add_counter("wivi_plan_misses_total", st.plan_misses);
  snap.add_counter("wivi_plan_builds_total", st.plan_builds);
  snap.add_counter("wivi_plan_evictions_total", st.plan_evictions);
  snap.add_counter("wivi_plan_ghost_hits_total", st.plan_ghost_hits);
  snap.add_counter("wivi_plan_resident_plans", st.plan_resident_plans);
  snap.add_counter("wivi_plan_resident_bytes", st.plan_resident_bytes);
  return snap;
}

void Engine::write_snapshot(std::ostream& os, obs::ExportFormat format) const {
  obs::write_snapshot(os, snapshot(), format);
}

void Engine::write_trace(std::ostream& os) const {
  std::vector<obs::TraceTrack> tracks;
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Session& s = *sessions_[i];
    if (!s.pipeline || s.pipeline->observer().trace().capacity() == 0)
      continue;
    tracks.push_back({static_cast<int>(s.id), "wivi session",
                      s.pipeline->observer().trace().records()});
  }
  obs::write_chrome_trace(os, tracks);
}

const api::Session& Engine::pipeline(SessionId id) const {
  return *session(id).pipeline;
}

const StreamingTracker& Engine::tracker(SessionId id) const {
  return session(id).pipeline->tracker();
}

const core::GestureDecoder::Result& Engine::gesture_result(
    SessionId id) const {
  return session(id).pipeline->gesture_result();
}

const track::MultiTargetTracker& Engine::multi_tracker(SessionId id) const {
  return session(id).pipeline->multi_tracker();
}

void Engine::drain() {
  const std::size_t n = session_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    // A fatal watchdog is the one other way a session is guaranteed to
    // resolve: its timeout turns an absent feeder into a terminal
    // kError(kTimeout), so waiting on it cannot hang.
    const Session& s = *sessions_[i];
    WIVI_REQUIRE(s.closed.load(std::memory_order_acquire) ||
                     s.finished.load(std::memory_order_acquire) ||
                     (s.ingest.watchdog.stall_timeout_sec > 0.0 &&
                      s.ingest.watchdog.timeout_is_fatal),
                 "drain() with a session still open would never return");
  }
  for (;;) {
    bool all_finished = true;
    for (std::size_t i = 0; i < n && all_finished; ++i)
      all_finished = sessions_[i]->finished.load(std::memory_order_acquire);
    if (all_finished) return;
    wake_workers();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Engine::wake_workers() noexcept { wake_cv_.notify_all(); }

void Engine::worker_loop(int wid) {
  const auto stride = static_cast<std::size_t>(num_threads_);
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = session_count_.load(std::memory_order_acquire);
    bool did_work = false;
    // Own shard first: sessions are distributed id mod thread count so the
    // common case is contention-free.
    for (std::size_t s = static_cast<std::size_t>(wid); s < n; s += stride)
      did_work |= try_process(*sessions_[s]);
    if (!did_work) {
      // Shard idle: steal one batch from any session with pending work.
      for (std::size_t s = 0; s < n && !did_work; ++s)
        if (s % stride != static_cast<std::size_t>(wid))
          did_work = try_process(*sessions_[s]);
    }
    if (!did_work) {
      // Nothing anywhere: sleep briefly. The timeout bounds the window of
      // a missed notify (offer() notifies without taking wake_mu_).
      std::unique_lock lk(wake_mu_);
      wake_cv_.wait_for(lk, std::chrono::microseconds(200));
    }
  }
}

bool Engine::try_process(Session& s) {
  if (s.finished.load(std::memory_order_acquire)) return false;
  const std::int64_t now = now_ns();
  // Restart-backoff gate: a freshly re-armed session rests until its
  // resume instant — the engine-side pause that keeps a crash-looping
  // pipeline from burning a worker.
  if (s.resume_at_ns.load(std::memory_order_acquire) > now) return false;
  // Cheap pre-check before contending on the claim flag. An idle session
  // is still claimed when its watchdog may be due — silence is exactly
  // what the watchdog exists to observe — or when a periodic kStats
  // emission is due.
  bool idle_tick = false;
  if (s.ring.empty() && !s.closed.load(std::memory_order_acquire)) {
    const double timeout = s.ingest.watchdog.stall_timeout_sec;
    const std::int64_t silent =
        now - s.last_activity_ns.load(std::memory_order_relaxed);
    const bool advisory_due = timeout > 0.0 && silent >= sec_to_ns(timeout) &&
                              !s.stall_flagged.load(std::memory_order_relaxed);
    const bool fatal_due = timeout > 0.0 &&
                           s.ingest.watchdog.timeout_is_fatal &&
                           silent >= 2 * sec_to_ns(timeout);
    const bool stats_due =
        s.ingest.stats_interval_sec > 0.0 &&
        now >= s.next_stats_ns.load(std::memory_order_relaxed);
    if (!advisory_due && !fatal_due && !stats_due) return false;
    idle_tick = true;
  }
  if (s.busy.exchange(true, std::memory_order_acquire)) return false;
  // Re-check under the claim: the pre-claim read can go stale if another
  // worker fails or finalises the session between the two lines, and a
  // dead session must never be processed again — popping its ring or
  // delivering further events (a second kError, say) for an id the
  // consumer already saw die would corrupt the per-session event
  // contract. All finished-transitions happen under the claim flag, so
  // this second read is authoritative.
  if (s.finished.load(std::memory_order_acquire)) {
    s.busy.store(false, std::memory_order_release);
    return false;
  }

  // An exception from a pipeline stage (WIVI_REQUIRE on pathological
  // input) or from a throwing user callback must not escape the worker
  // thread — that would std::terminate the whole service. It fails this
  // session only: the pipeline delivers its own ErrorEvent (a kError) on
  // the way out, and handle_failure() either re-arms the
  // session under its RestartPolicy or marks it finished so drain()
  // still returns.
  bool did_work = false;
  try {
    if (idle_tick) {
      if (s.ingest.watchdog.stall_timeout_sec > 0.0) check_watchdog(s, now);
      if (!s.finished.load(std::memory_order_relaxed))
        maybe_emit_stats(s, now);
      did_work = true;
    } else {
      Ingested in;
      for (int i = 0; i < cfg_.chunks_per_claim && s.ring.try_pop(in); ++i) {
        process_chunk(s, std::move(in));
        check_overload(s);
        in.samples.clear();
        did_work = true;
      }
      if (did_work) maybe_emit_stats(s, now_ns());
      // Finalise only once the close flag is up AND the ring is empty; the
      // acquire on `closed` makes every pre-close push visible, so an
      // empty ring here really is the end of the stream.
      if (!did_work && s.closed.load(std::memory_order_acquire) &&
          s.ring.empty() && !s.finished.load(std::memory_order_relaxed)) {
        finalize(s);
        did_work = true;
      }
    }
  } catch (const TypedError& e) {
    handle_failure(s, e.code(), e.what());
    did_work = true;
  } catch (const std::exception& e) {
    handle_failure(s, ErrorCode::kStageFailure, e.what());
    did_work = true;
  } catch (...) {
    handle_failure(s, ErrorCode::kStageFailure, "unknown exception");
    did_work = true;
  }
  s.busy.store(false, std::memory_order_release);
  return did_work;
}

void Engine::process_chunk(Session& s, Ingested in) {
  const CVec& chunk = in.samples;
  // Ring wait: how long the chunk sat between offer() and this pop.
  const std::int64_t popped = now_ns();
  if (popped > in.ingress_ns)
    m_.ingress_wait_ns.record(
        static_cast<std::uint64_t>(popped - in.ingress_ns));
  // The pipeline emits every event itself (through the delivery sink
  // installed at arm time); the engine only maintains the counters. The
  // counter is synced even when event delivery throws mid-chunk: the
  // image columns were completed before delivery started, and some may
  // already have reached the consumer.
  try {
    s.pipeline->push(chunk);
  } catch (const TypedError& e) {
    s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                        std::memory_order_relaxed);
    if (e.code() == ErrorCode::kInvalidChunk) {
      // InputGuard rejection: by contract a no-op for the pipeline — the
      // session stays healthy, the malformed chunk is only counted.
      s.chunks_rejected.fetch_add(1, std::memory_order_relaxed);
      s.samples_rejected.fetch_add(chunk.size(), std::memory_order_relaxed);
      return;
    }
    s.samples_lost.fetch_add(chunk.size(), std::memory_order_relaxed);
    throw;
  } catch (...) {
    s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                        std::memory_order_relaxed);
    s.samples_lost.fetch_add(chunk.size(), std::memory_order_relaxed);
    throw;
  }
  s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                      std::memory_order_relaxed);
  s.samples_processed.fetch_add(chunk.size(), std::memory_order_relaxed);
  // End-to-end chunk latency: offer() to fully processed (events
  // delivered). Engine-wide and per-session (the kStats payload).
  const std::int64_t done = now_ns();
  if (done > in.ingress_ns) {
    const auto lat = static_cast<std::uint64_t>(done - in.ingress_ns);
    m_.chunk_latency_ns.record(lat);
    s.latency.record(lat);
  }
}

/// The degradation ladder (runs under the claim flag, after each processed
/// chunk): trip down to the coarse angle grid once enough chunks drowned
/// since the last transition, climb back to full fidelity only after a
/// hysteresis window of drop-free processing.
void Engine::check_overload(Session& s) {
  const OverloadPolicy& op = s.ingest.overload;
  if (!op.degrade) return;
  const std::uint64_t drops = s.chunks_dropped.load(std::memory_order_relaxed);
  const std::uint64_t fresh = drops - s.drops_acked;
  const bool degraded = s.fidelity.load(std::memory_order_relaxed) > 1;
  if (!degraded) {
    if (fresh < op.degrade_after_drops) return;
    s.pipeline->set_fidelity(op.degraded_fidelity);
    s.fidelity.store(op.degraded_fidelity, std::memory_order_relaxed);
  } else if (fresh > 0) {
    s.drops_acked = drops;  // still drowning: restart the clean window
    s.clean_chunks = 0;
    return;
  } else if (++s.clean_chunks < op.restore_after_chunks) {
    return;
  } else {
    s.pipeline->set_fidelity(1);
    s.fidelity.store(1, std::memory_order_relaxed);
  }
  s.drops_acked = drops;
  s.clean_chunks = 0;
  m_.overload_transitions.add();
  deliver(s, api::OverloadEvent{
                 !degraded, s.fidelity.load(std::memory_order_relaxed), drops,
                 s.samples_dropped.load(std::memory_order_relaxed)});
}

/// Watchdog tick for an idle session (runs under the claim flag): one
/// advisory kStalled per silence, then — at twice the deadline, when the
/// timeout is fatal — a terminal kError of ErrorCode::kTimeout.
void Engine::check_watchdog(Session& s, std::int64_t now) {
  const std::int64_t deadline = sec_to_ns(s.ingest.watchdog.stall_timeout_sec);
  const std::int64_t silent =
      now - s.last_activity_ns.load(std::memory_order_relaxed);
  if (silent < deadline) return;  // fed between pre-check and claim
  if (s.ingest.watchdog.timeout_is_fatal && silent >= 2 * deadline) {
    m_.timeouts.add();
    fail_session(s, ErrorCode::kTimeout,
                 "watchdog: feeder silent past twice the liveness deadline");
    return;
  }
  if (s.stall_flagged.exchange(true, std::memory_order_relaxed)) return;
  m_.stalls.add();
  deliver(s, api::StalledEvent{static_cast<double>(silent) * 1e-9,
                               s.chunks_in.load(std::memory_order_relaxed)});
}

/// Periodic per-session telemetry (runs under the claim flag): one kStats
/// event carrying the session's SessionStats, at most once per
/// stats_interval_sec.
void Engine::maybe_emit_stats(Session& s, std::int64_t now) {
  if (s.ingest.stats_interval_sec <= 0.0) return;
  if (now < s.next_stats_ns.load(std::memory_order_relaxed)) return;
  s.next_stats_ns.store(now + sec_to_ns(s.ingest.stats_interval_sec),
                        std::memory_order_relaxed);
  deliver(s, stats(s.id));
}

void Engine::finalize(Session& s) {
  // The periodic kStats stream ends on the counters of the whole stream
  // (the last chunks may have arrived after the last due emission), as
  // they stand before the final flush.
  if (s.ingest.stats_interval_sec > 0.0) deliver(s, stats(s.id));
  s.pipeline->finish();  // final flush + FinishedEvent via the sink
  s.columns_out.store(s.columns_base + s.pipeline->columns_seen(),
                      std::memory_order_relaxed);
  retain(s);
  s.finished.store(true, std::memory_order_release);
}

/// Queue `s`, whose pipeline has finished and is never touched by a
/// worker again, as the newest finished session. The mutex orders the
/// pipeline's last writes before release_old_results() reads them.
void Engine::retain(const Session& s) {
  std::lock_guard lk(retained_mu_);
  retained_.push_back(s.id);
}

/// Move the image, tracks and gesture decode out of the finished sessions
/// beyond the newest kRetainedResults. Runs only inside open_session(), on
/// the caller's thread (see kRetainedResults).
void Engine::release_old_results() {
  std::lock_guard lk(retained_mu_);
  for (; retained_.size() > kRetainedResults; retained_.pop_front()) {
    api::Session& p = *sessions_[retained_.front()]->pipeline;
    (void)p.take_image();
    if (p.spec().track) (void)p.take_tracks();
    if (p.spec().gesture) (void)p.take_gesture_result();
  }
}

/// A pipeline (or engine-side delivery) failure under the claim flag:
/// either re-arm the session under its RestartPolicy — kRecovered follows
/// the failure's kError, processing resumes after the backoff — or let
/// the failure be terminal via fail_session().
void Engine::handle_failure(Session& s, ErrorCode code,
                            const char* what) noexcept {
  const RestartPolicy& rp = s.ingest.restart;
  const int used = s.restarts.load(std::memory_order_relaxed);
  if (used >= rp.max_restarts) {
    fail_session(s, code, what);
    return;
  }
  // Re-arm: a fresh pipeline (same spec, same sink/hook/fidelity wiring)
  // continues consuming the ring. The dead pipeline already delivered its
  // own kError; the kRecovered below tells the consumer the session
  // lives on. If re-compilation itself throws, the restart is abandoned
  // and the failure becomes terminal.
  try {
    s.columns_base += s.pipeline->columns_seen();
    s.arm_pipeline(this);
  } catch (...) {
    fail_session(s, code, what);
    return;
  }
  const int r = used + 1;
  s.restarts.store(r, std::memory_order_relaxed);
  m_.restarts.add();
  if (rp.backoff_sec > 0.0) {
    const double scale = static_cast<double>(std::uint64_t{1} << (r - 1));
    s.resume_at_ns.store(now_ns() + sec_to_ns(rp.backoff_sec * scale),
                         std::memory_order_release);
  }
  try {
    deliver(s, api::RecoveredEvent{r, code, what});
  } catch (...) {
    // The callback threw again (or allocation failed): the kRecovered is
    // lost but the session is restarted all the same.
  }
}

void Engine::fail_session(Session& s, ErrorCode code,
                          const char* what) noexcept {
  // Lifecycle guard (belt to try_process's braces): a session that is
  // already dead — it failed or finalised earlier — must not emit another
  // kError. Callers hold the claim flag, so this read cannot race a
  // concurrent transition.
  if (s.finished.load(std::memory_order_acquire)) return;
  // The pipeline delivers its own ErrorEvent when one of its stages or
  // the sink threw; only engine-side failures outside the pipeline still
  // need one here.
  if (!s.pipeline || !s.pipeline->failed()) {
    try {
      deliver(s, api::ErrorEvent{what, code});
    } catch (...) {
      // The callback threw again (or allocation failed): the error event
      // is lost but the session still dies cleanly.
    }
  }
  // Chunks still queued behind a terminal failure will never be popped:
  // count their samples as lost so the engine-wide conservation law
  // (samples_in == processed + dropped + rejected + lost) stays exact.
  // Callers hold the claim flag, so draining the consumer side is safe.
  Ingested in;
  while (s.ring.try_pop(in))
    s.samples_lost.fetch_add(in.samples.size(), std::memory_order_relaxed);
  s.finished.store(true, std::memory_order_release);
}

}  // namespace wivi::rt
