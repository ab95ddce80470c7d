// Statistics and accounting rules of the benchmark: which percentile a
// latency sample supports, when a chunk was due, and how a lost or wrong
// chunk is classified. Kept free of the wivi library so the self-tests
// pin these rules on their own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least p% of the sample at or below it. p in (0, 100].
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// n - ceil(p/100 * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The benchmark reports a tail percentile only when at least this many
/// samples lie beyond it, so one outlier cannot be the whole tail.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// True when n samples support reporting the p-th percentile
/// (samples_beyond(n, p) >= kMinSamplesBeyond).
[[nodiscard]] bool tail_supported(std::size_t n, double p);

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// One latency sample: when the result was delivered, and how late.
struct TimedSample {
  std::int64_t at_ns = 0;
  double ms = 0.0;
};

/// Samples per latency segment: the fewest that leave kMinSamplesBeyond
/// samples beyond a p99.
inline constexpr std::size_t kSegmentSamples = 1000;

/// Latency summary of one run.
struct LatencySummary {
  std::size_t count = 0;     ///< samples
  std::size_t segments = 0;  ///< segments the percentiles were taken over
  double p50 = 0.0;          ///< median over segments of the segment p50
  double p90 = 0.0;          ///< median over segments of the segment p90
  double p99 = 0.0;          ///< median over segments of the segment p99
  bool p99_supported = false;  ///< every segment supports its p99
};

/// Summarise a run's latency: the samples, in delivery order, are cut
/// into consecutive segments of kSegmentSamples (a short tail joins the
/// last segment), each segment's nearest-rank p50 and p99 are taken, and
/// the run reports the median over segments. A p99 therefore always has
/// at least kMinSamplesBeyond samples beyond it, and a stall of the shared
/// host during one stretch of the run moves one segment, not the result.
[[nodiscard]] LatencySummary summarize_latency(std::vector<TimedSample> v);

/// Median event rate over the whole windows of `window_ns` that fit in
/// [start_ns, end_ns): the throughput of a typical stretch of the run, so
/// a burst of host noise moves one window, not the result. Events outside
/// the range are ignored; 0 when no whole window fits.
[[nodiscard]] double median_window_rate(const std::vector<std::int64_t>& at_ns,
                                        std::int64_t start_ns,
                                        std::int64_t end_ns,
                                        std::int64_t window_ns);

// -------------------------------------------------------- open-loop timing

/// An open-loop sender schedule: sensor `slot` of `slots` sends chunk k
/// at start + (k * slots + slot) * period / slots — every sensor once per
/// period, the start times spread evenly across the period.
struct Schedule {
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 0;
  std::size_t slots = 1;

  /// When chunk `k` of sensor slot `slot` is due.
  [[nodiscard]] std::int64_t due_ns(std::size_t slot, std::size_t k) const;
};

/// Index of the chunk whose arrival completes image column `column` when
/// every chunk carries exactly `hop` samples and a column spans `window`
/// samples starting at column * hop.
[[nodiscard]] std::size_t completing_chunk(std::size_t column,
                                           std::size_t window,
                                           std::size_t hop);

/// Due-time latency in milliseconds: from when the chunk was due to be
/// sent (not when the generator got round to sending it) to delivery.
/// Stalls of the generator therefore count against the system, which
/// keeps an open loop honest.
[[nodiscard]] double due_latency_ms(std::int64_t due_ns,
                                    std::int64_t delivered_ns);

// ------------------------------------------------------ failure accounting

/// Why an attempted chunk did not yield a verified column.
enum class Cause : int {
  kWireLoss = 0,     ///< never reached the reassembler (tail loss)
  kGap,              ///< declared a gap or evicted by the reassembler
  kRingRefused,      ///< refused by the session ring (or a closed session)
  kRejected,         ///< rejected by the session's InputGuard
  kMismatch,         ///< its column differs from the reference (or is missing)
  kSessionRefused,   ///< the engine refused the session
  kCount,
};

/// Stable name of a cause ("wire_loss", ...).
[[nodiscard]] const char* cause_name(Cause c);

/// What happened to one sensor stream, as counted at each layer.
struct StreamOutcome {
  std::uint64_t sent = 0;          ///< chunks the generator sent
  std::uint64_t delivered = 0;     ///< chunks the reassembler handed on
  std::uint64_t gaps = 0;          ///< gap + evicted chunks (reassembler)
  std::uint64_t ring_refused = 0;  ///< chunks refused at the sink
  std::uint64_t rejected = 0;      ///< InputGuard rejections
  std::uint64_t warmup = 0;        ///< chunks that complete no column
  std::uint64_t columns_ok = 0;    ///< columns that matched the reference
  bool session_refused = false;    ///< the engine refused the session
};

/// Failures by cause over any number of streams.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::array<std::uint64_t, static_cast<int>(Cause::kCount)> by_cause{};

  /// Fold one stream's outcome in. Every chunk sent is attempted; a
  /// refused session fails all of them; otherwise each layer's losses
  /// are charged to that layer, and every accepted chunk past the warm-up
  /// that did not produce a matching column is a mismatch. Failures never
  /// exceed attempts.
  void add(const StreamOutcome& o);
  /// Total failures.
  [[nodiscard]] std::uint64_t failed() const;
  /// failed / attempted (0 when nothing was attempted).
  [[nodiscard]] double fail_frac() const;
  /// "cause=count,..." for the run report.
  [[nodiscard]] std::string describe() const;
};

}  // namespace perfbench
