#include "src/layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "src/core/isar.hpp"
#include "src/core/music.hpp"
#include "src/linalg/eig.hpp"
#include "src/net/frame.hpp"
#include "src/obs/clock.hpp"
#include "src/net/reassembler.hpp"
#include "src/par/image_builder.hpp"
#include "src/track/multi_tracker.hpp"

namespace perfbench {

using wivi::obs::steady_now_ns;

namespace {

/// Worlds and columns per world the replay covers: enough columns for
/// stable means, few enough to keep the traced run short.
constexpr std::size_t kReplayWorlds = 4;
constexpr std::size_t kReplayColumns = 96;

/// One timed call. Spans of one column share `id` (the column's request
/// id); `parent` indexes the enclosing span, -1 for a root.
struct Span {
  const char* name;
  int track;  // world index: one trace thread per world
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;
};

class SpanLog {
 public:
  int open(const char* name, int track, std::uint64_t id, int parent) {
    spans_.push_back({name, track, id, steady_now_ns(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int i) { spans_[static_cast<std::size_t>(i)].end_ns = steady_now_ns(); }
  /// A span whose start is the previous sibling's end (back-to-back calls
  /// share one clock read).
  int chain(const char* name, int track, std::uint64_t id, int parent,
            std::int64_t start) {
    spans_.push_back({name, track, id, start, steady_now_ns(), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SelfTime {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> dur_ns;
};

/// Per span name: calls, total and self time (duration minus the part
/// covered by child spans).
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SelfTime& t = out[spans[i].name];
    ++t.count;
    t.total_ns += d;
    t.dur_ns.push_back(d);
    t.self_ns += d - child[i];
  }
  return out;
}

double mean_us(const SelfTime& t) {
  return t.count == 0 ? 0.0 : t.total_ns * 1e-3 / static_cast<double>(t.count);
}

/// Per-call layer times are medians: the host is shared, and one
/// preempted call would otherwise dominate a mean.
double median_us(const SelfTime& t) { return median(t.dur_ns) * 1e-3; }

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  os << "{\"traceEvents\":[\n";
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"perfbench layer replay"}})";
  char buf[320];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"column\":%llu}}",
                  s.name, s.track, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id));
    os << buf;
  }
  os << "\n]}\n";
}

bool bit_equal(const wivi::RVec& a, const wivi::RVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Time spent in, and calls of, one pipeline stage of a Session.
struct StageTotal {
  double ns = 0.0;
  double calls = 0.0;
};

/// The per-column layers, called one by one in the streaming path's order.
/// Returns the guard stage totals of the interleaved Session.
StageTotal replay_columns(const World& w, int track, std::size_t ncols,
                          std::uint64_t& next_id, SpanLog& log, RunResult& r) {
  const wivi::api::PipelineSpec spec = pipeline_spec();
  const wivi::core::MotionTracker::Config& cfg = spec.image.tracker;
  const wivi::CSpan trace(w.sc.h);
  const auto hop = static_cast<std::size_t>(cfg.hop);
  const auto win = static_cast<std::size_t>(cfg.music.isar.window);

  wivi::core::SlidingCorrelation sliding(cfg.music.subarray, cfg.music.isar.window);
  wivi::core::SmoothedMusic music(cfg.music);
  wivi::linalg::CMatrix corr;
  wivi::linalg::EigResult eig;
  wivi::linalg::EigWorkspace eig_ws;
  const wivi::track::ColumnDetector detector(spec.track->tracker.detector);
  std::vector<wivi::track::Detection> detections;
  wivi::track::MultiTargetTracker tracker(spec.track->tracker);
  wivi::core::AngleTimeImage img;
  img.angles_deg = *wivi::core::acquire_angle_grid(cfg.angle_step_deg);
  music.prewarm(img.angles_deg);
  // The same hops through the public API, each push right after the layer
  // calls for its column, so both see the host in the same state.
  wivi::api::Session session(spec);
  session.set_callback([](wivi::api::Event&&) {});
  const std::size_t warm = completing_chunk(0, win, hop);
  for (std::size_t k = 0; k < warm; ++k) (void)session.push(w.chunk(k));

  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < ncols; ++c) {
    const std::uint64_t id = next_id++;
    const int root = log.open("column", track, id, -1);
    const std::int64_t t0 = steady_now_ns();
    sliding.advance_to(trace, c * hop);
    sliding.correlation_into(corr);
    const int s1 = log.chain("corr", track, id, root, t0);
    wivi::linalg::hermitian_eig_into(corr, eig, eig_ws);
    const int s2 = log.chain("eig", track, id, root, log.spans()[s1].end_ns);
    img.columns.emplace_back();
    int order = 0;
    music.pseudospectrum_from_correlation_into(corr, img.angles_deg,
                                               img.columns.back(), &order);
    const int s3 = log.chain("pseudospectrum", track, id, root, log.spans()[s2].end_ns);
    img.model_orders.push_back(order);
    img.times_sec.push_back(
        spec.t0 + (static_cast<double>(c * hop) + static_cast<double>(win) / 2.0) *
                      cfg.music.isar.sample_period_sec);
    // The tracker step detects on its own; the separate detect call runs
    // after it, on the same column, to split detection from the rest.
    (void)tracker.step(img, c);
    const int s4 = log.chain("step", track, id, root, log.spans()[s3].end_ns);
    detector.detect_into(img, c, detections);
    log.chain("detect", track, id, root, log.spans()[s4].end_ns);
    log.close(root);
    const int push = log.open("push", track, id, -1);
    (void)session.push(w.chunk(c + warm));
    log.close(push);
    if (!bit_equal(img.columns.back(), w.ref.columns[c]) ||
        order != w.ref.model_orders[c])
      ++mismatches;
  }
  if (mismatches > 0)
    r.problems.push_back("layer replay: " + std::to_string(mismatches) +
                         " columns differ from the Session reference");
  StageTotal guard;
  for (const auto& st : session.stats().stages)
    if (std::strcmp(st.stage, "guard") == 0) {
      guard.ns += static_cast<double>(st.latency.sum);
      guard.calls += static_cast<double>(st.latency.count);
    }
  return guard;
}

}  // namespace

std::string replay_layers(const std::vector<World>& worlds, int par_threads,
                          const std::string& trace_path, RunResult& r) {
  const std::size_t nw = std::min(kReplayWorlds, worlds.size());
  const wivi::api::PipelineSpec spec = pipeline_spec();
  auto columns_of = [&](const World& w) {
    return std::min(kReplayColumns, w.ref.num_times());
  };

  // core / linalg / track: one span tree per column.
  SpanLog log;
  std::uint64_t next_id = 0;
  StageTotal guard;
  for (std::size_t i = 0; i < nw; ++i) {
    const StageTotal g = replay_columns(worlds[i], static_cast<int>(i),
                                        columns_of(worlds[i]), next_id, log, r);
    guard.ns += g.ns;
    guard.calls += g.calls;
  }
  const auto self = self_times(log.spans());
  write_chrome_trace(log.spans(), trace_path);
  auto row = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? SelfTime{} : it->second;
  };
  const double corr_us = median_us(row("corr"));
  const double eig_us = median_us(row("eig"));
  const double scan_us = median_us(row("pseudospectrum")) - eig_us;
  const double detect_us = median_us(row("detect"));
  const double step_us = median_us(row("step")) - detect_us;
  const double attributed = corr_us + eig_us + scan_us + detect_us + step_us;
  const double push_us = median_us(row("push"));

  // core: the correlation rebuild at each parallel block start.
  std::vector<double> rebuild_ns;
  for (std::size_t i = 0; i < nw; ++i) {
    const World& w = worlds[i];
    wivi::core::SlidingCorrelation sc(spec.image.tracker.music.subarray,
                                      spec.image.tracker.music.isar.window);
    for (std::size_t c = 0; c < w.ref.num_times();
         c += wivi::par::ParallelImageBuilder::kColumnsPerBlock) {
      const std::int64_t t0 = steady_now_ns();
      sc.rebuild(wivi::CSpan(w.sc.h), c * kHop);
      rebuild_ns.push_back(static_cast<double>(steady_now_ns() - t0));
    }
  }

  // par: the whole-world column-parallel build, 1 thread vs par_threads.
  double t_one = 0.0;
  double t_par = 0.0;
  for (std::size_t i = 0; i < nw; ++i) {
    for (const int n : {1, par_threads}) {
      wivi::api::Session s(spec);
      s.set_callback([](wivi::api::Event&&) {});
      const std::int64_t t0 = steady_now_ns();
      s.run(worlds[i].sc.h, wivi::api::Parallelism{n});
      (n == 1 ? t_one : t_par) += static_cast<double>(steady_now_ns() - t0);
    }
  }

  // net: parse and reassemble the same hops as wire frames.
  std::vector<std::vector<std::byte>> frames;
  for (std::size_t i = 0; i < nw; ++i)
    for (std::size_t k = 0; k < worlds[i].chunks; ++k)
      for (auto& f : wivi::net::chunk_to_frames(static_cast<std::uint32_t>(i + 1), k,
                                                worlds[i].chunk(k)))
        frames.push_back(std::move(f));
  std::vector<wivi::net::FrameView> views(frames.size());
  constexpr int kParseReps = 50;
  const std::int64_t p0 = steady_now_ns();
  for (int rep = 0; rep < kParseReps; ++rep)
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (wivi::net::parse_frame(frames[f], views[f]) != wivi::net::ParseStatus::kOk)
        throw std::runtime_error("layer replay: a generated frame failed to parse");
    }
  const double parse_ns = static_cast<double>(steady_now_ns() - p0) /
                          static_cast<double>(kParseReps * frames.size());
  constexpr int kReasmReps = 10;
  double reasm_total = 0.0;
  for (int rep = 0; rep < kReasmReps; ++rep) {
    std::uint64_t delivered = 0;
    wivi::net::Demux demux(
        wivi::net::Reassembler::Config{},
        [&delivered](std::uint32_t, std::uint64_t, wivi::CVec&&) {
          ++delivered;
          return true;
        });
    const std::int64_t t0 = steady_now_ns();
    for (const auto& v : views) demux.feed(v);
    reasm_total += static_cast<double>(steady_now_ns() - t0);
    if (delivered != frames.size())
      r.problems.push_back("layer replay: reassembly lost chunks");
  }

  auto& L = r.layers;
  L["net.parse_ns"] = parse_ns;
  L["net.reasm_ns"] = reasm_total / static_cast<double>(kReasmReps * frames.size());
  L["api.push_us"] = push_us;
  L["api.guard_us"] = guard.calls > 0 ? guard.ns * 1e-3 / guard.calls : 0.0;
  L["api.other_us"] = push_us - attributed;
  L["api.attributed_frac"] = push_us > 0 ? attributed / push_us : 0.0;
  L["core.corr_us"] = corr_us;
  L["linalg.eig_us"] = eig_us;
  L["linalg.eig_share"] = attributed > 0 ? eig_us / attributed : 0.0;
  L["core.scan_us"] = scan_us;
  L["core.rebuild_us"] = median(rebuild_ns) * 1e-3;
  L["track.detect_us"] = detect_us;
  L["track.step_us"] = step_us;
  L["par.build_ms"] = nw > 0 ? t_par * 1e-6 / static_cast<double>(nw) : 0.0;
  L["par.speedup"] = t_par > 0 ? t_one / t_par : 0.0;

  std::string table = "{";
  bool first = true;
  for (const auto& [name, t] : self) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"calls\":%zu,\"mean_us\":%.3f,\"median_us\":%.3f,"
                  "\"self_us\":%.3f}",
                  first ? "" : ",", name.c_str(), t.count, mean_us(t), median_us(t),
                  t.count ? t.self_ns * 1e-3 / static_cast<double>(t.count) : 0.0);
    table += buf;
    first = false;
  }
  table += "}";
  return table;
}

}  // namespace perfbench
