/// @file
/// The streaming runtime engine: N live sensor sessions multiplexed over a
/// shared worker pool.
///
/// Since the wivi::api facade landed, the Engine is a *thin multiplexer*:
/// each session owns a lock-free SPSC ring of sample chunks plus one
/// compiled wivi::Session pipeline; a pool of workers drains the rings —
/// each worker walks its own shard (session id mod thread count) first and
/// steals from any other shard when its own is idle. A per-session claim
/// flag guarantees at most one worker touches a session's pipeline at a
/// time, so per-session results are in stream order and independent of
/// thread count and interleaving (pinned by test_rt_engine). Results come
/// back either through poll() or a caller-supplied callback (invoked on
/// worker threads).
///
/// Sessions are opened from an api::PipelineSpec plus an IngestConfig (the
/// ring/backpressure knobs that only exist in the multiplexed setting).
/// Every delivered event starts as a typed api::Event — the pipeline's
/// own output or one of the engine's health events — and is flattened
/// into the legacy rt::Event at one point, to_legacy_event().
///
/// Ownership/threading rules are spelled out in DESIGN.md §4. The short
/// version: one producer thread per session at a time; Engine owns every
/// Session; a session's pipeline is only ever touched under its claim
/// flag.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/events.hpp"
#include "src/api/session.hpp"
#include "src/obs/metrics.hpp"
#include "src/rt/spsc_ring.hpp"
#include "src/rt/streaming.hpp"

namespace wivi::rt {

/// Handle identifying one sensor session within an Engine.
using SessionId = std::uint32_t;

/// What to do when a session's ring is full at offer() time.
enum class Backpressure {
  /// Drop the offered chunk (and count it). Keeps the producer real-time
  /// at the cost of stream gaps — the live-capture default.
  kDropNewest,
  /// Make offer() wait (yield-spin) until the ring has room. Lossless and
  /// deterministic; for replayed traces and tests.
  kBlock,
};

/// Bounded-retry recovery of a failed multiplexed session (DESIGN.md §9):
/// when a pipeline stage, sink or fault hook throws, the engine re-arms
/// the session with a freshly compiled pipeline (same spec) instead of
/// killing it — up to `max_restarts` times, each restart announced by a
/// kRecovered event following the failure's kError. The restarted
/// pipeline starts a new image (earlier columns are lost, column indices
/// restart from 0) and continues consuming the ring where the dead one
/// stopped. With the default `max_restarts == 0` every failure is
/// terminal, exactly the legacy single-kError contract.
struct RestartPolicy {
  /// Restarts allowed over the session's lifetime (0 = never restart).
  int max_restarts = 0;
  /// Delay before restart r resumes processing: backoff_sec * 2^(r-1)
  /// (exponential). 0 resumes immediately.
  double backoff_sec = 0.0;
};

/// Per-session liveness watchdog (DESIGN.md §9): when the feeder goes
/// silent for `stall_timeout_sec`, the engine emits one advisory kStalled
/// event (re-armed by the next offer()); if silence reaches twice the
/// deadline and `timeout_is_fatal`, the session dies with a terminal
/// kError of ErrorCode::kTimeout — which is also how a session that was
/// opened but never fed nor closed resolves instead of hanging drain().
struct WatchdogConfig {
  /// Liveness deadline in seconds; 0 disables the watchdog.
  double stall_timeout_sec = 0.0;
  /// Kill the session (kError, ErrorCode::kTimeout) when silence reaches
  /// 2 * stall_timeout_sec. When false the watchdog only ever advises.
  bool timeout_is_fatal = true;
};

/// Graceful degradation under overload (DESIGN.md §9): when a kDropNewest
/// session keeps losing chunks to a full ring, the engine steps the
/// session down to a coarser MUSIC angle grid
/// (wivi::Session::set_fidelity) so each column costs less and the worker
/// catches up; after a hysteresis window of drop-free input it restores
/// full fidelity. Both transitions are announced with kOverload events.
struct OverloadPolicy {
  /// Master switch; false leaves fidelity alone no matter the drops.
  bool degrade = false;
  /// Enter degraded mode after this many chunks dropped since the last
  /// transition (the ladder's trip point).
  std::uint64_t degrade_after_drops = 8;
  /// Angle-grid decimation while degraded (>= 2 to be a real step down).
  int degraded_fidelity = 4;
  /// Restore full fidelity after this many consecutively processed chunks
  /// with no new drops (the hysteresis that prevents flapping).
  std::uint64_t restore_after_chunks = 64;
};

/// The ingestion-edge knobs of one multiplexed session — everything about
/// *feeding* the pipeline that has no meaning for a standalone
/// wivi::Session (which is handed its chunks directly).
struct IngestConfig {
  /// Ingest ring depth in chunks (rounded up to a power of two).
  std::size_t ring_capacity = 256;
  /// What offer() does when the ring is full.
  Backpressure backpressure = Backpressure::kDropNewest;
  /// Bounded-retry recovery of pipeline failures (default: none).
  RestartPolicy restart{};
  /// Feeder-liveness watchdog (default: disabled).
  WatchdogConfig watchdog{};
  /// Degrade-under-overload ladder (default: disabled).
  OverloadPolicy overload{};
  /// Chaos-engineering failpoint forwarded to
  /// wivi::Session::set_fault_hook on every (re)armed pipeline — how the
  /// fault-injection suites script stage exceptions at exact chunk
  /// indices inside a multiplexed session (fault::throw_hook).
  std::function<void(std::size_t)> fault_hook{};
  /// Emit a periodic kStats event carrying the session's SessionStats
  /// (cumulative counters + chunk-latency summary) at least this many
  /// seconds apart — in-band telemetry a sink can watch without polling
  /// Engine::stats(). Emitted from whichever worker holds the session's
  /// claim, including on idle sessions, plus once more when the closed
  /// stream's last chunk has been processed, just before the final flush
  /// and kFinished (bits a gesture stage emits in that flush are not in
  /// its bits_out). 0 (the default) disables it.
  double stats_interval_sec = 0.0;
};

/// Point-in-time per-session counters (see Engine::stats(SessionId)): the
/// same record a periodic kStats event carries.
using SessionStats = api::StatsEvent;

/// One unit of output, delivered via poll() or the callback. Per-session
/// event order is deterministic; the interleaving across sessions is not.
/// @deprecated Legacy fat-union event: which payload fields are meaningful
/// depends on `type`. Every instance is built by to_legacy_event() from a
/// typed api::Event, and to_api_event() recovers it.
struct Event {
  /// What this event reports.
  enum class Type {
    kColumn,     ///< one new angle-time image column
    kBits,       ///< newly stable decoded gesture bits
    kCount,      ///< running spatial-variance update (after new columns)
    kTracks,     ///< live multi-target snapshots (after new columns)
    kFinished,   ///< session closed, drained and finalised
    kError,      ///< session failed; terminal unless a kRecovered follows
    kStalled,    ///< watchdog advisory: the feeder has gone silent
    kRecovered,  ///< the session restarted under its RestartPolicy
    kOverload,   ///< degradation-ladder transition (OverloadPolicy)
    kStats,      ///< periodic telemetry (IngestConfig::stats_interval_sec)
  };

  /// Session this event belongs to.
  SessionId session = 0;
  /// Event kind; selects which of the payload fields below are meaningful.
  Type type = Type::kColumn;

  /// kColumn: index of the new column in the session's image.
  std::size_t column_index = 0;
  /// kColumn: absolute time of the column (window centre).
  double time_sec = 0.0;
  /// kColumn: linear pseudospectrum over the session's angle grid.
  RVec column;
  /// kColumn: MUSIC model order of the column.
  int model_order = 0;

  /// kBits: newly stable decoded gesture bits, time order.
  std::vector<core::GestureDecoder::DecodedBit> bits;

  /// kTracks: live track snapshots after the newest processed column.
  std::vector<track::TrackSnapshot> tracks;
  /// kTracks / kFinished (when tracking): confirmed-target count.
  std::size_t num_confirmed = 0;

  /// kCount / kFinished (when counting): running spatial variance.
  double spatial_variance = 0.0;
  /// kCount / kTracks / kFinished: image columns processed so far.
  std::size_t columns_seen = 0;

  /// kError: what the failing stage or callback threw.
  /// kRecovered: what forced the restart.
  std::string error;
  /// kError / kRecovered: machine-readable failure class
  /// (wivi::error_code_name() for the string form).
  ErrorCode code = ErrorCode::kNone;

  /// kStalled: how long the feeder has been silent.
  double silent_sec = 0.0;
  /// kStalled: chunks the session had received at stall detection.
  std::uint64_t chunks_in = 0;
  /// kRecovered: restarts consumed so far, this one included.
  int restarts = 0;
  /// kOverload: true entering degraded mode, false restoring fidelity.
  bool degraded = false;
  /// kOverload: angle-grid decimation now in effect (1 = full fidelity).
  int fidelity = 1;
  /// kOverload / kFinished / kError: cumulative chunks lost to
  /// backpressure.
  std::uint64_t chunks_dropped = 0;
  /// kOverload / kFinished / kError: cumulative samples lost to
  /// backpressure.
  std::uint64_t samples_dropped = 0;
  /// kFinished / kError: cumulative chunks rejected by the InputGuard.
  std::uint64_t chunks_rejected = 0;
  /// kStats: the session's cumulative counters and latency summary.
  SessionStats stats;
};

/// The legacy engine event carrying the payload of a typed api::Event for
/// session `session` — the one place an rt::Event is built.
[[nodiscard]] Event to_legacy_event(SessionId session, api::Event e);

/// The typed api::Event carried by a legacy engine event (the session id
/// is dropped — api::Events are per-session by construction).
[[nodiscard]] api::Event to_api_event(const Event& e);

/// The session table plus worker pool: opens sessions, ingests chunks,
/// drains them through their compiled pipelines and delivers Events.
class Engine {
 public:
  /// Engine-wide (not per-session) configuration.
  struct Config {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    int num_threads = 0;
    /// Session table size (fixed at start so the lock-free reader side
    /// never chases a reallocating vector).
    std::size_t max_sessions = 1024;
    /// Chunks a worker processes per claim: the work-stealing granularity
    /// and the bound on how long one session monopolises a worker.
    int chunks_per_claim = 4;
  };

  /// Engine-wide cumulative telemetry (see stats() with no argument):
  /// sums over every session this engine has ever opened.
  struct EngineStats {
    std::uint64_t sessions = 0;           ///< sessions opened
    std::uint64_t sessions_finished = 0;  ///< sessions drained or dead
    std::uint64_t chunks_in = 0;          ///< chunks offered, all sessions
    std::uint64_t samples_in = 0;         ///< samples offered
    std::uint64_t chunks_dropped = 0;     ///< chunks lost to backpressure
    std::uint64_t samples_dropped = 0;    ///< samples lost to backpressure
    std::uint64_t chunks_rejected = 0;    ///< InputGuard rejections
    std::uint64_t samples_rejected = 0;   ///< samples in rejected chunks
    std::uint64_t samples_processed = 0;  ///< samples fully processed
    std::uint64_t samples_lost = 0;       ///< samples in chunks dying mid-failure
    std::uint64_t columns_out = 0;        ///< image columns produced
    std::uint64_t bits_out = 0;           ///< gesture bits emitted
    std::uint64_t events_out = 0;         ///< events delivered
    std::uint64_t stalls = 0;             ///< watchdog advisories fired
    std::uint64_t timeouts = 0;           ///< fatal watchdog timeouts
    std::uint64_t restarts = 0;           ///< RestartPolicy restarts
    std::uint64_t overload_transitions = 0;  ///< degradation-ladder moves
    // Shared-plan registry counters (process-wide wivi::plan cache — every
    // session's steering tables, FFT plans, window tables, angle grids).
    std::uint64_t plan_hits = 0;         ///< acquires served by a resident plan
    std::uint64_t plan_misses = 0;       ///< acquires that found no resident plan
    std::uint64_t plan_builds = 0;       ///< artifacts actually constructed
    std::uint64_t plan_evictions = 0;    ///< residents demoted by the ARC cache
    std::uint64_t plan_ghost_hits = 0;   ///< misses that matched an evicted key
    std::uint64_t plan_resident_plans = 0;  ///< gauge: plans resident now
    std::uint64_t plan_resident_bytes = 0;  ///< gauge: bytes resident now
    obs::HistogramSnapshot ingress_wait;  ///< offer→pop ring wait, ns
    obs::HistogramSnapshot chunk_latency; ///< offer→processed latency, ns
  };

  Engine();  ///< Start an engine with the default Config.
  /// Start the worker pool with the given configuration.
  explicit Engine(Config cfg);
  /// Stops the workers; queued-but-unprocessed chunks are discarded.
  ~Engine();

  Engine(const Engine&) = delete;             ///< Non-copyable.
  Engine& operator=(const Engine&) = delete;  ///< Non-copyable.

  /// Number of worker threads actually running.
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }
  /// Number of sessions opened so far.
  [[nodiscard]] std::size_t num_sessions() const noexcept {
    return session_count_.load(std::memory_order_acquire);
  }

  /// Register a new session running the given compiled-on-open pipeline
  /// spec, fed through a ring with the given ingestion policy. Throws
  /// TypedError(ErrorCode::kOverload) when all Config::max_sessions slots
  /// are taken — a refusal, not a fault. First releases the image, tracks
  /// and gesture decode of finished sessions beyond the newest
  /// kRetainedResults (so does run_recorded()). Thread-safe.
  SessionId open_session(api::PipelineSpec spec, IngestConfig ingest = {});

  /// Offline fast path for a fully recorded trace: open a session and
  /// execute its pipeline in the parallel-offline mode
  /// (wivi::Session::run(trace, Parallelism) — the image built
  /// column-parallel over this engine's thread count), delivering the same
  /// per-session event sequence a kBlock replay would — except that
  /// kCount/kTracks/kBits land once (after all columns) instead of once
  /// per chunk. The column values are bit-identical to the streaming
  /// path's (DESIGN.md §7). Blocks the calling thread for the whole
  /// computation (events are delivered from it, the column events while
  /// the image is still building) and returns the finished session's id;
  /// offer() on it is an error.
  /// Thread-safe, and concurrent callers parallelise independently.
  SessionId run_recorded(api::PipelineSpec spec, CSpan trace);

  /// Ingest one chunk (one producer thread per session at a time). Returns
  /// false iff the chunk was dropped: kDropNewest with a full ring, or —
  /// under either policy — the engine being stopped or the session already
  /// finished (it failed, timed out, or exhausted its restarts; no worker
  /// will ever drain its ring again). kBlock otherwise waits for ring
  /// space and returns true. Every offer also feeds the session's
  /// liveness watchdog.
  bool offer(SessionId id, CVec chunk);

  /// End of stream: after the ring drains, the session is finalised (final
  /// gesture flush, kFinished event). offer() afterwards is an error.
  void close_session(SessionId id);

  /// Block until every session is closed, drained and finalised. Requires
  /// every session to have been close_session()ed — or to carry a fatal
  /// watchdog (WatchdogConfig with timeout_is_fatal), whose timeout
  /// guarantees the session resolves even if its feeder never shows up
  /// (else drain() would never return — enforced).
  void drain();

  /// Move all queued events into `out` (appended); returns how many. No-op
  /// when a callback is installed.
  std::size_t poll(std::vector<Event>& out);

  /// Deliver events through `cb` (on worker threads, one event at a time
  /// per session) instead of the poll() queue. Install before the first
  /// open_session(). A throwing callback fails the session it was
  /// reporting on (kError, best effort) — it never crashes the engine.
  void set_callback(std::function<void(Event&&)> cb);

  /// Point-in-time counters for a session (safe while the session runs;
  /// exact once it is finished).
  [[nodiscard]] SessionStats stats(SessionId id) const;

  /// Engine-wide cumulative telemetry: sums of the per-session counters
  /// (every term of the sample conservation law, columns, bits) plus the
  /// registry's lifecycle and health counters. Safe any time; exact once
  /// quiet.
  [[nodiscard]] EngineStats stats() const;

  /// The engine's telemetry as one exportable obs::Snapshot: every
  /// registry metric (`wivi_engine_*`, `wivi_ingress_wait_ns`,
  /// `wivi_chunk_latency_ns`, and any `wivi_net_*` family a net::Receiver
  /// interned in registry()), the per-session sums of stats() under their
  /// `wivi_engine_*_total` names, the ring cursor sums
  /// (`wivi_ring_{pushes,pops,drops}_total`) and the shared-plan counters.
  /// Feed it to obs::write_snapshot, or use write_snapshot() directly.
  [[nodiscard]] obs::Snapshot snapshot() const;

  /// Render snapshot() to `os` as JSON (default) or Prometheus text.
  void write_snapshot(std::ostream& os,
                      obs::ExportFormat format = obs::ExportFormat::kJson) const;

  /// Write every session's retained pipeline trace spans as one Chrome
  /// trace-event JSON, one track (pid = session id) per session — only
  /// sessions whose spec set api::ObsConfig::trace_capacity contribute.
  /// Call once the engine is quiet (post-drain): the trace rings are
  /// claim-protected and this reads them unclaimed.
  void write_trace(std::ostream& os) const;

  /// The engine's metric registry — counters/histograms for everything the
  /// engine observes; extend it with caller-owned metrics if desired.
  [[nodiscard]] obs::Registry& registry() noexcept { return registry_; }

  /// Finished sessions whose image, tracks and gesture decode stay
  /// readable through tracker(), multi_tracker() and gesture_result().
  /// open_session() and run_recorded() first move those results out of
  /// every finished session older than the newest kRetainedResults (with
  /// api::Session::take_image(), take_tracks() and take_gesture_result());
  /// its stats(id), pipeline(id).stats(), columns_seen(), samples_seen()
  /// and count are kept. Only the caller's own opens release results,
  /// never a worker, so results read between two opens cannot change
  /// underneath the reader; a reader on another thread than the one
  /// opening sessions must not hold these references across that
  /// thread's opens. Without the bound every finished session would keep
  /// its whole image (~0.44 MB per 24 s of stream) until the engine dies.
  /// 16 keeps the retained images of 24 s streams near 7 MB while a
  /// caller that runs sessions one after another can still read back the
  /// last few.
  static constexpr std::size_t kRetainedResults = 16;

  /// The session's compiled pipeline — safe to read once the session is
  /// finished (kFinished observed or drain() returned). Its image, tracks
  /// and gesture decode are released after kRetainedResults later
  /// sessions finish, at the next open (see kRetainedResults).
  [[nodiscard]] const api::Session& pipeline(SessionId id) const;

  /// The session's streaming image stage — safe to read once the session
  /// is finished, like pipeline(); image() reads empty once released.
  [[nodiscard]] const StreamingTracker& tracker(SessionId id) const;
  /// Final gesture decode (sessions with a gesture stage; post-drain,
  /// like pipeline(); reads empty once released).
  [[nodiscard]] const core::GestureDecoder::Result& gesture_result(
      SessionId id) const;
  /// The session's multi-target tracker (sessions with a track stage) —
  /// safe to read once the session is finished, like pipeline(); reads as
  /// freshly built once released.
  [[nodiscard]] const track::MultiTargetTracker& multi_tracker(
      SessionId id) const;

 private:
  /// One ring slot: the offered chunk stamped with its offer instant
  /// (obs::now_ns), so the draining worker can attribute ring wait and
  /// end-to-end chunk latency.
  struct Ingested {
    CVec samples;
    std::int64_t ingress_ns = 0;
  };

  struct Session {
    Session(Engine* engine, SessionId id_, api::PipelineSpec spec_,
            IngestConfig ingest_);

    /// (Re)compile `spec` into a fresh pipeline and wire it up: the
    /// delivery sink, the fault hook and the currently commanded
    /// fidelity. Runs at open and, under the claim flag, at every
    /// RestartPolicy restart.
    void arm_pipeline(Engine* engine);

    SessionId id;
    IngestConfig ingest;
    /// The spec, kept beyond compilation so a restart can re-arm an
    /// identical pipeline (api::Session is neither copyable nor movable).
    api::PipelineSpec spec;
    std::optional<api::Session> pipeline;
    SpscRing<Ingested> ring;

    std::atomic<bool> closed{false};
    std::atomic<bool> finished{false};
    /// Claim flag: exchange(true, acquire) to take the session, store
    /// (false, release) to hand it back. The acquire/release pair carries
    /// the pipeline state (and the ring's consumer cache) between
    /// workers.
    std::atomic<bool> busy{false};

    // The only record of the session's sample accounting and output
    // counts: stats(), snapshot() and the kStats/terminal events all read
    // these (relaxed atomics, so they can be read while the session runs).
    // Producer-side counters.
    std::atomic<std::uint64_t> chunks_in{0};
    std::atomic<std::uint64_t> samples_in{0};
    std::atomic<std::uint64_t> chunks_dropped{0};
    std::atomic<std::uint64_t> samples_dropped{0};
    // Worker-side counters.
    std::atomic<std::uint64_t> columns_out{0};
    std::atomic<std::uint64_t> bits_out{0};
    std::atomic<std::uint64_t> chunks_rejected{0};
    std::atomic<std::uint64_t> samples_rejected{0};
    std::atomic<std::uint64_t> samples_processed{0};
    std::atomic<std::uint64_t> samples_lost{0};

    // Watchdog state: last producer activity (steady-clock ns) and
    // whether the advisory kStalled for the current silence has fired.
    std::atomic<std::int64_t> last_activity_ns{0};
    std::atomic<bool> stall_flagged{false};
    // Restart state: restarts consumed, and the steady-clock instant
    // before which workers must leave the session alone (backoff).
    std::atomic<int> restarts{0};
    std::atomic<std::int64_t> resume_at_ns{0};
    /// Columns produced by pre-restart pipeline incarnations, so
    /// columns_out stays monotone across restarts. Claim-protected.
    std::uint64_t columns_base = 0;

    // Overload-ladder state, claim-protected except the mirrored
    // fidelity (read by stats() while live).
    std::atomic<int> fidelity{1};
    std::uint64_t drops_acked = 0;   ///< drops already reacted to
    std::uint64_t clean_chunks = 0;  ///< drop-free chunks since last drop

    /// Offer→processed chunk latency. Single-slot: the claim flag already
    /// serializes every writer, so sharding would only waste cache lines.
    obs::Histogram latency{1};
    /// Next kStats emission instant (stats_interval_sec; claim-checked).
    std::atomic<std::int64_t> next_stats_ns{0};
  };

  /// The engine's named metrics, interned once so the hot path records
  /// through cached references (DESIGN.md §10 naming scheme).
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    obs::Counter& events;
    obs::Counter& stalls;
    obs::Counter& timeouts;
    obs::Counter& restarts;
    obs::Counter& overload_transitions;
    obs::Histogram& ingress_wait_ns;
    obs::Histogram& chunk_latency_ns;
  };

  void worker_loop(int wid);
  bool try_process(Session& s);
  void process_chunk(Session& s, Ingested in);
  void check_overload(Session& s);
  void check_watchdog(Session& s, std::int64_t now_ns);
  void maybe_emit_stats(Session& s, std::int64_t now_ns);
  void finalize(Session& s);
  void retain(const Session& s);
  void release_old_results();
  void handle_failure(Session& s, ErrorCode code, const char* what) noexcept;
  void fail_session(Session& s, ErrorCode code, const char* what) noexcept;
  void deliver(Session& s, api::Event&& e);
  void wake_workers() noexcept;
  [[nodiscard]] Session& session(SessionId id) const;

  Config cfg_;
  int num_threads_ = 1;

  // Telemetry: the registry owns every named engine metric; m_ caches the
  // interned references for the hot paths (declared after registry_ —
  // construction order matters).
  obs::Registry registry_;
  Metrics m_{registry_};

  // Fixed-size table: slots are filled once under register_mu_ and then
  // only read; workers learn about new sessions via the release/acquire
  // on session_count_.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<std::size_t> session_count_{0};
  std::mutex register_mu_;
  /// Finished sessions whose image, tracks and gesture decode are held,
  /// oldest first (trimmed to kRetainedResults by release_old_results()).
  std::mutex retained_mu_;
  std::deque<SessionId> retained_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::function<void(Event&&)> callback_;
  std::mutex events_mu_;
  std::vector<Event> events_;
};

}  // namespace wivi::rt
