#include "src/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0 || !(p > 0.0) || p > 100.0)
    throw std::invalid_argument("percentile needs n > 0 and p in (0, 100]");
  // Guard the product against rounding just above an integer (99 * 100 /
  // 100 = 99.00000000000001 must rank 99, not 100).
  const double x = p / 100.0 * static_cast<double>(n);
  const double r = std::ceil(x - 1e-9 * std::max(1.0, x));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool tail_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinSamplesBeyond;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary summarize_latency(std::vector<TimedSample> v) {
  LatencySummary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::stable_sort(v.begin(), v.end(), [](const TimedSample& a, const TimedSample& b) {
    return a.at_ns < b.at_ns;
  });
  s.segments = std::max<std::size_t>(1, v.size() / kSegmentSamples);
  std::vector<double> p50s, p90s, p99s, seg;
  s.p99_supported = true;
  for (std::size_t k = 0; k < s.segments; ++k) {
    const std::size_t lo = k * kSegmentSamples;
    const std::size_t hi = k + 1 == s.segments ? v.size() : lo + kSegmentSamples;
    seg.clear();
    for (std::size_t i = lo; i < hi; ++i) seg.push_back(v[i].ms);
    std::sort(seg.begin(), seg.end());
    p50s.push_back(percentile_sorted(seg, 50.0));
    p90s.push_back(percentile_sorted(seg, 90.0));
    p99s.push_back(percentile_sorted(seg, 99.0));
    s.p99_supported = s.p99_supported && tail_supported(seg.size(), 99.0);
  }
  s.p50 = median(p50s);
  s.p90 = median(p90s);
  s.p99 = median(p99s);
  return s;
}

double median_window_rate(const std::vector<std::int64_t>& at_ns,
                          std::int64_t start_ns, std::int64_t end_ns,
                          std::int64_t window_ns) {
  if (window_ns <= 0 || end_ns - start_ns < window_ns) return 0.0;
  const auto windows = static_cast<std::size_t>((end_ns - start_ns) / window_ns);
  std::vector<double> counts(windows, 0.0);
  for (const std::int64_t t : at_ns) {
    if (t < start_ns) continue;
    const auto w = static_cast<std::size_t>((t - start_ns) / window_ns);
    if (w < windows) counts[w] += 1.0;
  }
  return median(counts) * 1e9 / static_cast<double>(window_ns);
}

std::int64_t Schedule::due_ns(std::size_t slot, std::size_t k) const {
  const auto tick = static_cast<std::int64_t>(k * slots + slot);
  return start_ns + tick * period_ns / static_cast<std::int64_t>(slots);
}

std::size_t completing_chunk(std::size_t column, std::size_t window,
                             std::size_t hop) {
  if (hop == 0) throw std::invalid_argument("hop must be positive");
  // Column c covers samples [c*hop, c*hop + window); the chunk holding the
  // last of them completes it.
  return (column * hop + window - 1) / hop;
}

double due_latency_ms(std::int64_t due_ns, std::int64_t delivered_ns) {
  return static_cast<double>(delivered_ns - due_ns) * 1e-6;
}

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kWireLoss: return "wire_loss";
    case Cause::kGap: return "gap";
    case Cause::kRingRefused: return "ring_refused";
    case Cause::kRejected: return "rejected";
    case Cause::kMismatch: return "mismatch";
    case Cause::kSessionRefused: return "session_refused";
    case Cause::kCount: break;
  }
  return "unknown";
}

void FailureTally::add(const StreamOutcome& o) {
  attempted += o.sent;
  auto charge = [&](Cause c, std::uint64_t n, std::uint64_t& budget) {
    const std::uint64_t take = std::min(n, budget);
    by_cause[static_cast<int>(c)] += take;
    budget -= take;
  };
  std::uint64_t budget = o.sent;
  if (o.session_refused) {
    charge(Cause::kSessionRefused, o.sent, budget);
    return;
  }
  const std::uint64_t seen = o.delivered + o.gaps + o.ring_refused;
  charge(Cause::kWireLoss, o.sent > seen ? o.sent - seen : 0, budget);
  charge(Cause::kGap, o.gaps, budget);
  charge(Cause::kRingRefused, o.ring_refused, budget);
  charge(Cause::kRejected, o.rejected, budget);
  const std::uint64_t accepted =
      o.delivered > o.rejected ? o.delivered - o.rejected : 0;
  const std::uint64_t expected = accepted > o.warmup ? accepted - o.warmup : 0;
  charge(Cause::kMismatch, expected > o.columns_ok ? expected - o.columns_ok : 0,
         budget);
}

std::uint64_t FailureTally::failed() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : by_cause) n += c;
  return n;
}

double FailureTally::fail_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

std::string FailureTally::describe() const {
  std::string out;
  for (int i = 0; i < static_cast<int>(Cause::kCount); ++i) {
    if (!out.empty()) out += ',';
    out += cause_name(static_cast<Cause>(i));
    out += '=';
    out += std::to_string(by_cause[i]);
  }
  return out;
}

}  // namespace perfbench
