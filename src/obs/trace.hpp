/// @file
/// Per-stage latency spans and the bounded trace ring: how one chunk's
/// journey through the pipeline becomes numbers (per-stage histograms) and
/// pictures (a Chrome trace-event JSON you can drop into Perfetto).
///
/// The pipeline stages are fixed (Stage enum) so recording is an array
/// index, not a name lookup. A PipelineObserver is single-writer by
/// construction — it belongs to one api::Session (whose push() path is
/// single-threaded) or one claim-serialized engine session — so its
/// histograms are plain LocalHistograms and its TraceBuffer needs no
/// atomics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "src/obs/clock.hpp"
#include "src/obs/histogram.hpp"
#include "src/obs/metrics.hpp"

namespace wivi::obs {

/// @addtogroup wivi_obs
/// @{

/// The fixed pipeline stages a chunk passes through (DESIGN.md §10).
enum class Stage : int {
  kIngress = 0,  ///< Offer-to-pop wait in the engine ring (engine only).
  kGuard,        ///< Input validation / sanitization.
  kStft,         ///< One column's smoothed correlation ("stft_doppler").
  kMusic,        ///< MUSIC pseudospectrum for one emitted column.
  kDetect,       ///< Motion counting / association / gesture decoding.
  kEmit,         ///< Event delivery to the sink.
  kChunk,        ///< The whole push (guard through emit).
  kCount,        ///< Number of stages (array bound, not a stage).
};

/// Number of real stages (excludes Stage::kCount).
inline constexpr int kStageCount = static_cast<int>(Stage::kCount);

/// The stable metric/trace name of `s` ("guard", "stft_doppler", ...).
[[nodiscard]] const char* stage_name(Stage s) noexcept;

/// One completed span: a named interval on the pipeline timeline.
struct TraceRecord {
  const char* name = "";     ///< Stage or event name (static storage).
  std::int64_t start_ns = 0; ///< Span start, obs::now_ns() timebase.
  std::int64_t dur_ns = 0;   ///< Span duration in nanoseconds.
};

/// A bounded ring of the most recent trace spans. Capacity 0 disables
/// recording entirely (push is a counter bump). Single-writer; readers
/// must be externally synchronized with the writer (e.g. call records()
/// from the same thread, or after the pipeline is quiet).
class TraceBuffer {
 public:
  /// A ring keeping the most recent `capacity` spans.
  explicit TraceBuffer(std::size_t capacity = 0) : cap_(capacity) {
    ring_.reserve(capacity);
  }

  /// Append a span, evicting the oldest when full.
  void push(const TraceRecord& r) {
    ++total_;
    if (cap_ == 0) return;
    if (ring_.size() < cap_) {
      ring_.push_back(r);
    } else {
      ring_[head_] = r;
      head_ = (head_ + 1) % cap_;
    }
  }

  /// Maximum retained spans.
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Currently retained spans (≤ capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Spans ever pushed, including evicted ones.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// The retained spans, oldest first.
  [[nodiscard]] std::vector<TraceRecord> records() const;

  /// Drop all retained spans (total() is preserved).
  void clear() {
    ring_.clear();
    head_ = 0;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::uint64_t total_ = 0;
  std::vector<TraceRecord> ring_;
};

/// One exportable trace track: a (process id, span source) pair. The
/// engine exports one track per session so Perfetto shows them as
/// separate processes.
struct TraceTrack {
  int pid = 0;                       ///< Chrome trace "pid" for this track.
  const char* label = "wivi";        ///< Track label (process_name row).
  std::vector<TraceRecord> records;  ///< Spans, any order.
};

/// Write `tracks` as Chrome trace-event JSON (`{"traceEvents":[...]}`,
/// complete "X" events, ts/dur in microseconds) — loadable in Perfetto or
/// chrome://tracing, validated by scripts/check_trace.py.
void write_chrome_trace(std::ostream& os, const std::vector<TraceTrack>& tracks);

/// Convenience: a single track with pid 0.
void write_chrome_trace(std::ostream& os, const TraceBuffer& buffer,
                        const char* label = "wivi");

/// The per-stage instrument a pipeline carries: one LocalHistogram per
/// Stage plus an optional TraceBuffer of recent spans. Single-writer (see
/// file comment). Recording honours both the compile-time switch and
/// obs::enabled() via ScopedSpan / record().
class PipelineObserver {
 public:
  /// An observer with span timing on/off and `trace_capacity` retained
  /// trace spans (0 = no trace ring).
  explicit PipelineObserver(bool timing = true, std::size_t trace_capacity = 0)
      : timing_(timing), trace_(trace_capacity) {}

  /// Whether spans should be measured right now (compile-time switch AND
  /// construction-time `timing` AND run-time obs::enabled()).
  [[nodiscard]] bool active() const noexcept {
#if WIVI_OBS_ENABLED
    return timing_ && enabled();
#else
    return false;
#endif
  }

  /// Record a completed span for `s` (start/end in obs::now_ns() time).
  void record(Stage s, std::int64_t start_ns, std::int64_t end_ns) {
    const std::int64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
    if (!hist_)  // first span ever: materialise the histogram block
      hist_ = std::make_unique<std::array<LocalHistogram, kStageCount>>();
    (*hist_)[static_cast<std::size_t>(s)].record(
        static_cast<std::uint64_t>(dur));
    if (trace_.capacity() != 0)
      trace_.push({stage_name(s), start_ns, dur});
  }

  /// The latency histogram of stage `s` (all spans recorded so far; a
  /// shared empty histogram before the first record()).
  [[nodiscard]] const LocalHistogram& stage(Stage s) const noexcept {
    static const LocalHistogram kEmpty;
    return hist_ ? (*hist_)[static_cast<std::size_t>(s)] : kEmpty;
  }

  /// The trace ring (capacity 0 when tracing is off).
  [[nodiscard]] const TraceBuffer& trace() const noexcept { return trace_; }

  /// Append every non-empty stage histogram to `snap` as
  /// `<prefix><stage>_ns`.
  void add_to_snapshot(Snapshot& snap, const std::string& prefix) const;

 private:
  bool timing_;
  // Lazily allocated on the first recorded span: an observer that never
  // records (an idle session, or obs disabled) costs pointer-size instead
  // of the full kStageCount histogram block.
  std::unique_ptr<std::array<LocalHistogram, kStageCount>> hist_;
  TraceBuffer trace_;
};

/// RAII span: captures obs::now_ns() at construction when the observer is
/// active, records the interval at destruction (or at an explicit stop()).
class ScopedSpan {
 public:
  /// Start timing stage `s` on `obs` (null or inactive observer → no-op).
  ScopedSpan(PipelineObserver* obs, Stage s) noexcept
      : obs_(obs != nullptr && obs->active() ? obs : nullptr),
        stage_(s),
        start_ns_(obs_ != nullptr ? now_ns() : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;             ///< Non-copyable.
  ScopedSpan& operator=(const ScopedSpan&) = delete;  ///< Non-copyable.

  /// Record the span now instead of at scope exit.
  void stop() noexcept {
    if (obs_ == nullptr) return;
    obs_->record(stage_, start_ns_, now_ns());
    obs_ = nullptr;
  }

  ~ScopedSpan() { stop(); }  ///< Records the span unless stop()ped already.

 private:
  PipelineObserver* obs_;
  Stage stage_;
  std::int64_t start_ns_;
};

/// @}

}  // namespace wivi::obs
