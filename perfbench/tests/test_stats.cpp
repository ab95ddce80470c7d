// Self-tests of the benchmark's statistics and accounting rules.
#include <gtest/gtest.h>

#include <vector>

#include "src/stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// ------------------------------------------------------------ percentiles

TEST(Percentile, NearestRankOfOneToHundred) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(percentile_sorted(v, 50.0), 50.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 99.0);  // no rounding up to 100
  EXPECT_EQ(percentile_sorted(v, 100.0), 100.0);
  EXPECT_EQ(percentile_sorted(v, 0.5), 1.0);
}

TEST(Percentile, NearestRankIsAlwaysAnObservedValue) {
  const std::vector<double> v = {1.0, 2.0, 10.0};
  EXPECT_EQ(percentile_sorted(v, 50.0), 2.0);  // no interpolation
  EXPECT_EQ(percentile_sorted(v, 99.0), 10.0);
}

TEST(Percentile, RejectsEmptySampleAndBadRank) {
  EXPECT_THROW((void)percentile_sorted({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile_sorted({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)percentile_sorted({1.0}, 100.5), std::invalid_argument);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// ------------------------------------------------ the >= 10-beyond rule

TEST(TailRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(tail_supported(1000, 99.0));
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_FALSE(tail_supported(999, 99.0));
  EXPECT_FALSE(tail_supported(0, 99.0));
}

TEST(TailRule, P90NeedsAHundredSamples) {
  EXPECT_TRUE(tail_supported(100, 90.0));
  EXPECT_FALSE(tail_supported(99, 90.0));
}

std::vector<TimedSample> timed(const std::vector<double>& ms) {
  std::vector<TimedSample> v;
  for (std::size_t i = 0; i < ms.size(); ++i)
    v.push_back({static_cast<std::int64_t>(i), ms[i]});
  return v;
}

TEST(TailRule, SummaryFlagsAnUnsupportedP99) {
  const LatencySummary s = summarize_latency(timed(one_to(500)));
  EXPECT_EQ(s.count, 500u);
  EXPECT_EQ(s.segments, 1u);
  EXPECT_EQ(s.p50, 250.0);
  EXPECT_EQ(s.p99, 495.0);
  EXPECT_FALSE(s.p99_supported);
  EXPECT_TRUE(summarize_latency(timed(one_to(1000))).p99_supported);
}

TEST(TailRule, PercentilesAreMediansOverDeliveryOrderSegments) {
  // Three 1000-sample segments; the middle one stalled. Delivery order,
  // not sample order, defines the segments.
  std::vector<TimedSample> v;
  for (int seg = 0; seg < 3; ++seg)
    for (int i = 1; i <= 1000; ++i)
      v.push_back({(2 - seg) * 10'000 + i, seg == 1 ? 1000.0 + i : i * 0.01});
  const LatencySummary s = summarize_latency(v);
  EXPECT_EQ(s.segments, 3u);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);   // the stalled segment's 1500 is outvoted
  EXPECT_DOUBLE_EQ(s.p99, 9.9);
}

TEST(TailRule, ShortTailJoinsTheLastSegment) {
  const LatencySummary s = summarize_latency(timed(one_to(2500)));
  EXPECT_EQ(s.segments, 2u);  // 1000 + 1500, every segment supports p99
  EXPECT_TRUE(s.p99_supported);
}

TEST(Throughput, MedianWindowRateIgnoresOneSlowWindow) {
  // 10 events per 100 ms window, except one window that got only 2.
  std::vector<std::int64_t> at;
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < (w == 2 ? 2 : 10); ++i)
      at.push_back(w * 100'000'000LL + i * 5'000'000LL);
  EXPECT_DOUBLE_EQ(median_window_rate(at, 0, 500'000'000, 100'000'000), 100.0);
}

TEST(Throughput, PartialWindowsAndOutsideEventsAreIgnored) {
  const std::vector<std::int64_t> at = {-5, 10, 20, 150, 260};
  // [0, 250) holds two whole 100-unit windows: {10, 20} and {150}.
  EXPECT_DOUBLE_EQ(median_window_rate(at, 0, 250, 100), 1.5e7);
  EXPECT_EQ(median_window_rate(at, 0, 50, 100), 0.0);
}

// ---------------------------------------------------- due-time latency

TEST(DueTime, SlotsSpreadEvenlyAcrossThePeriod) {
  Schedule s;
  s.start_ns = 1'000;
  s.period_ns = 80'000'000;
  s.slots = 64;
  EXPECT_EQ(s.due_ns(0, 0), 1'000);
  EXPECT_EQ(s.due_ns(1, 0), 1'000 + 1'250'000);
  EXPECT_EQ(s.due_ns(63, 0), 1'000 + 63 * 1'250'000);
  EXPECT_EQ(s.due_ns(0, 1), 1'000 + 80'000'000);
  EXPECT_EQ(s.due_ns(5, 10), s.due_ns(5, 9) + 80'000'000);
}

TEST(DueTime, LatencyRunsFromTheDueTimeNotTheSendTime) {
  // A generator that sends 3 ms late charges those 3 ms to the result.
  const std::int64_t due = 10'000'000;
  const std::int64_t sent = due + 3'000'000;
  const std::int64_t delivered = sent + 1'500'000;
  EXPECT_DOUBLE_EQ(due_latency_ms(due, delivered), 4.5);
}

TEST(DueTime, ColumnIsCompletedByTheChunkHoldingItsLastSample) {
  // window 100, hop 25: column c spans samples [25c, 25c + 100).
  EXPECT_EQ(completing_chunk(0, 100, 25), 3u);
  EXPECT_EQ(completing_chunk(1, 100, 25), 4u);
  EXPECT_EQ(completing_chunk(96, 100, 25), 99u);
  // A window that is not a whole number of hops.
  EXPECT_EQ(completing_chunk(0, 110, 25), 4u);
  EXPECT_THROW((void)completing_chunk(0, 100, 0), std::invalid_argument);
}

// ------------------------------------------------ failure classification

TEST(Failures, CleanStreamHasNoFailures) {
  FailureTally t;
  t.add({.sent = 100, .delivered = 100, .warmup = 3, .columns_ok = 97});
  EXPECT_EQ(t.attempted, 100u);
  EXPECT_EQ(t.failed(), 0u);
  EXPECT_EQ(t.fail_frac(), 0.0);
}

TEST(Failures, EachLayerIsChargedItsOwnLosses) {
  FailureTally t;
  StreamOutcome o;
  o.sent = 100;
  o.delivered = 90;     // 2 never seen on the wire
  o.gaps = 3;
  o.ring_refused = 5;
  o.rejected = 1;
  o.warmup = 3;
  o.columns_ok = 80;    // 89 accepted - 3 warm-up = 86 expected
  t.add(o);
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kWireLoss)], 2u);
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kGap)], 3u);
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kRingRefused)], 5u);
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kRejected)], 1u);
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kMismatch)], 6u);
  EXPECT_EQ(t.failed(), 17u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.17);
}

TEST(Failures, RefusedSessionFailsEveryChunkItWasSent) {
  FailureTally t;
  t.add({.sent = 40, .delivered = 40, .warmup = 3, .session_refused = true});
  EXPECT_EQ(t.by_cause[static_cast<int>(Cause::kSessionRefused)], 40u);
  EXPECT_EQ(t.failed(), 40u);
}

TEST(Failures, FailuresNeverExceedAttempts) {
  FailureTally t;
  StreamOutcome o;
  o.sent = 10;
  o.delivered = 10;
  o.rejected = 10;
  o.ring_refused = 10;  // inconsistent counts must not overcharge
  t.add(o);
  EXPECT_EQ(t.failed(), 10u);
  EXPECT_LE(t.fail_frac(), 1.0);
}

TEST(Failures, DescribeNamesEveryCause) {
  FailureTally t;
  t.add({.sent = 5, .delivered = 4, .warmup = 3, .columns_ok = 1});
  EXPECT_EQ(t.describe(),
            "wire_loss=1,gap=0,ring_refused=0,rejected=0,mismatch=0,"
            "session_refused=0");
}

}  // namespace
}  // namespace perfbench
