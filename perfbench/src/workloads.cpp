#include "src/workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "src/net/ingest.hpp"
#include "src/net/receiver.hpp"
#include "src/net/sender.hpp"
#include "src/obs/clock.hpp"
#include "src/plan/registry.hpp"
#include "src/rt/engine.hpp"

namespace perfbench {

using wivi::obs::steady_now_ns;

namespace rt = wivi::rt;
namespace net = wivi::net;

namespace {

// ------------------------------------------------------------ parameters

constexpr int kLiveSensors = 32;
constexpr int kChurnSlots = 32;
constexpr int kOpenLoopWorkers = 2;
constexpr std::size_t kChurnMinChunks = 25;  // 2 s of stream
constexpr std::size_t kChurnMaxChunks = 50;  // 4 s of stream
constexpr std::size_t kChurnShortest = 8;    // a cut tail shorter than this
                                             // is folded into its predecessor
constexpr std::size_t kPoolWorlds = 16;
constexpr std::size_t kPoolChunks = 300;     // 24 s worlds
// Closed-loop sensors per worker. Each generation of sessions has
// consecutive ids, so it spreads evenly over the engine's id-mod-workers
// shards; two per shard keep a worker busy on one while the generator
// refills the other, and hold each column's wait to about one other column.
constexpr int kSensorsPerWorker = 2;
// Closed-loop window: one column in flight per sensor, so a worker takes
// one chunk per claim and serves its shard round robin.
constexpr std::size_t kOutstandingColumns = 1;
constexpr std::size_t kMaxSessions = rt::Engine::Config{}.max_sessions;
constexpr double kParityTol = 1e-9;             // DESIGN.md §7

/// Wait for `due` without sleeping: a sleeping generator wakes late by
/// whatever the host's timer and vCPU scheduling add, and due-time
/// latency would charge that to the system under test.
void spin_until(std::int64_t due) {
  while (steady_now_ns() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
}

std::size_t warmup_chunks() {
  const auto w = static_cast<std::size_t>(
      pipeline_spec().image.tracker.music.isar.window);
  return completing_chunk(0, w, kHop);
}

std::size_t open_loop_ticks(double seconds) {
  return static_cast<std::size_t>(std::ceil(seconds / kChunkSec));
}

/// Churn: per slot, the chunk counts of the sensors that follow each
/// other in it, filling exactly `ticks` chunks.
std::vector<std::vector<std::size_t>> churn_plan(std::uint64_t seed,
                                                 std::size_t ticks) {
  std::vector<std::vector<std::size_t>> plan(kChurnSlots);
  std::uint64_t state = mix64(seed ^ 0xC4u);
  for (auto& slot : plan) {
    std::size_t used = 0;
    while (used < ticks) {
      state = mix64(state);
      std::size_t len =
          kChurnMinChunks + state % (kChurnMaxChunks - kChurnMinChunks + 1);
      len = std::min(len, ticks - used);
      if (len < kChurnShortest && !slot.empty())
        slot.back() += len;
      else
        slot.push_back(len);
      used += len;
    }
  }
  return plan;
}

// --------------------------------------------------------- event capture

/// The parallel-vs-sliding agreement contract: 1e-9 on the bounded noise
/// projection 1/A' (test_par's convention).
bool parity_equal(const wivi::RVec& a, const wivi::RVec& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::abs(1.0 / a[i] - 1.0 / b[i]) <= kParityTol)) return false;
  return true;
}

/// Everything the engine delivered for one session.
struct SessionLog {
  /// Streaming sessions: column_hash of every delivered column.
  std::vector<std::uint64_t> hashes;
  std::vector<int> orders;
  /// Offline sessions: the world being run (set before the run starts, on
  /// the thread that then delivers the events) and how many delivered
  /// columns matched its reference within the parity tolerance.
  const World* offline = nullptr;
  std::size_t parity_ok = 0;
  /// (columns_seen, delivery instant) of every tracks event.
  std::vector<std::pair<std::size_t, std::int64_t>> tracks;
  std::atomic<std::size_t> columns_done{0};
  bool finished = false;
  bool failed = false;
  std::string error;
};

/// The engine callback: files each event under its session. Per-session
/// delivery is sequential under the engine's claim flag, so a log is only
/// ever written by one worker at a time and read after drain().
class EventSink {
 public:
  explicit EventSink(bool count_workers)
      : logs_(kMaxSessions), count_workers_(count_workers) {
    for (auto& l : logs_) l = std::make_unique<SessionLog>();
  }

  void operator()(rt::Event&& e) {
    SessionLog& l = *logs_.at(e.session);
    switch (e.type) {
      case rt::Event::Type::kColumn:
        if (l.offline != nullptr) {
          const World& w = *l.offline;
          const std::size_t c = l.orders.size();
          if (c < w.ref.num_times() && e.model_order == w.ref.model_orders[c] &&
              parity_equal(e.column, w.ref.columns[c]))
            ++l.parity_ok;
        } else {
          l.hashes.push_back(column_hash(e.column));
        }
        l.orders.push_back(e.model_order);
        if (count_workers_) count_worker();
        break;
      case rt::Event::Type::kTracks:
        l.tracks.emplace_back(e.columns_seen, steady_now_ns());
        l.columns_done.store(e.columns_seen, std::memory_order_release);
        completions.fetch_add(1, std::memory_order_release);
        completions.notify_one();
        break;
      case rt::Event::Type::kFinished:
        l.finished = true;
        finished.fetch_add(1, std::memory_order_release);
        break;
      case rt::Event::Type::kError:
        l.failed = true;
        l.error = e.error;
        finished.fetch_add(1, std::memory_order_release);
        break;
      default:
        break;
    }
  }

  SessionLog& log(rt::SessionId id) { return *logs_.at(id); }

  /// Columns delivered per worker thread (traced runs).
  std::vector<std::uint64_t> worker_columns() {
    std::lock_guard lk(mu_);
    std::vector<std::uint64_t> out;
    for (const auto& [tid, n] : per_thread_) out.push_back(n);
    return out;
  }

  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::uint64_t> finished{0};

 private:
  void count_worker() {
    std::lock_guard lk(mu_);
    ++per_thread_[std::this_thread::get_id()];
  }

  std::vector<std::unique_ptr<SessionLog>> logs_;
  bool count_workers_;
  std::mutex mu_;
  std::unordered_map<std::thread::id, std::uint64_t> per_thread_;
};

// ------------------------------------------------------------ verification

/// Compare one session's delivered columns with its world's reference:
/// bit-identical for streaming sessions, within the parallel-vs-sliding
/// parity tolerance for offline ones. Returns the matching columns and
/// appends any structural problem.
std::uint64_t verify_stream(const SessionLog& l, const World& w,
                            std::size_t expected_columns, bool offline,
                            const std::string& who,
                            std::vector<std::string>& problems) {
  std::uint64_t ok = l.parity_ok;
  const std::size_t n = std::min({l.orders.size(), expected_columns,
                                  w.ref.num_times()});
  if (!offline)
    for (std::size_t c = 0; c < std::min(n, l.hashes.size()); ++c)
      if (l.hashes[c] == w.ref_hash[c] && l.orders[c] == w.ref.model_orders[c]) ++ok;
  auto problem = [&](const std::string& what) {
    if (problems.size() < 16) problems.push_back(who + ": " + what);
  };
  if (l.orders.size() != expected_columns)
    problem("delivered " + std::to_string(l.orders.size()) +
            " columns, expected " + std::to_string(expected_columns));
  if (ok != n) problem(std::to_string(n - ok) + " columns differ from the reference");
  if (!l.finished || l.failed) problem("session did not finish cleanly " + l.error);
  if (offline) {
    if (l.tracks.size() != 1 || l.tracks[0].first != expected_columns)
      problem("offline run did not report its tracks once");
  } else {
    bool monotone = l.tracks.size() == l.orders.size();
    for (std::size_t j = 0; monotone && j < l.tracks.size(); ++j)
      monotone = l.tracks[j].first == j + 1;
    if (!monotone) problem("tracks events do not follow the columns one to one");
  }
  return ok;
}

void check_engine_law(const rt::Engine::EngineStats& s, RunResult& r) {
  const std::uint64_t out = s.samples_processed + s.samples_dropped +
                            s.samples_rejected + s.samples_lost;
  if (s.samples_in != out)
    r.broken_laws.push_back("engine samples_in " + std::to_string(s.samples_in) +
                            " != processed+dropped+rejected+lost " +
                            std::to_string(out));
}

void check_net_law(const net::Receiver& rx, RunResult& r) {
  const net::WireStats& w = rx.wire_stats();
  if (w.frames_in != w.frames_accepted + w.frames_rejected)
    r.broken_laws.push_back("wire frames_in != accepted + rejected");
  const net::Demux::Stats d = rx.demux().stats();
  if (w.frames_accepted != d.frames_in + rx.demux().sensors_refused())
    r.broken_laws.push_back("accepted frames != reassembled + refused sensors");
  const std::uint64_t out = d.frames_delivered + d.frames_dup + d.frames_stale +
                            d.frames_evicted + d.frames_decode_failed +
                            d.frames_sink_dropped + d.frames_control +
                            d.frames_in_flight;
  if (d.frames_in != out)
    r.broken_laws.push_back("reassembly frames_in " + std::to_string(d.frames_in) +
                            " != sum of outcomes " + std::to_string(out));
}

double mean_ospa(const std::vector<World>& worlds) {
  double sum = 0.0;
  for (const World& w : worlds) sum += w.ospa_deg;
  return worlds.empty() ? 0.0 : sum / static_cast<double>(worlds.size());
}

/// Seconds the sessions' pipelines spent inside push (their "chunk"
/// stage): the engine workers' busy time.
double busy_seconds(const rt::Engine& eng, const std::vector<rt::SessionId>& sids) {
  double ns = 0.0;
  for (const rt::SessionId sid : sids)
    for (const auto& st : eng.pipeline(sid).stats().stages)
      if (std::strcmp(st.stage, "chunk") == 0) ns += static_cast<double>(st.latency.sum);
  return ns * 1e-9;
}

/// Engine-side observations shared by every traced workload.
void engine_layers(rt::Engine& eng, EventSink& sink,
                   const std::vector<rt::SessionId>& sids, int workers,
                   double wall_s, const wivi::plan::Stats& plan_before,
                   RunResult& r) {
  const rt::Engine::EngineStats es = eng.stats();
  r.layers["rt.ring_wait_p50_us"] = static_cast<double>(es.ingress_wait.p50) * 1e-3;
  r.layers["rt.ring_wait_p99_us"] = static_cast<double>(es.ingress_wait.p99) * 1e-3;
  r.layers["rt.chunk_latency_p99_us"] =
      static_cast<double>(es.chunk_latency.p99) * 1e-3;
  r.layers["rt.events_per_column"] =
      es.columns_out == 0 ? 0.0
                          : static_cast<double>(es.events_out) /
                                static_cast<double>(es.columns_out);
  double orders = 0.0;
  double columns = 0.0;
  for (const rt::SessionId sid : sids) {
    for (const int o : sink.log(sid).orders) orders += o;
    columns += static_cast<double>(sink.log(sid).orders.size());
  }
  r.layers["rt.worker_busy_frac"] = busy_seconds(eng, sids) / (workers * wall_s);
  r.layers["core.model_order_mean"] = columns > 0 ? orders / columns : 0.0;
  std::vector<std::uint64_t> per = sink.worker_columns();
  per.resize(std::max<std::size_t>(per.size(), static_cast<std::size_t>(workers)), 0);
  const auto [lo, hi] = std::minmax_element(per.begin(), per.end());
  r.layers["rt.worker_skew"] =
      static_cast<double>(*hi) / static_cast<double>(std::max<std::uint64_t>(*lo, 1));
  std::string spread;
  for (const std::uint64_t n : per) spread += (spread.empty() ? "" : "/") + std::to_string(n);
  r.notes["columns_per_worker"] = spread;
  const wivi::plan::Stats ps = wivi::plan::registry().stats();
  r.layers["plan.hits"] = static_cast<double>(ps.hits - plan_before.hits);
  r.layers["plan.resident_kb"] = static_cast<double>(ps.resident_bytes) / 1024.0;
  const wivi::obs::Snapshot snap = eng.snapshot();
  double f2r = 0.0;
  for (const auto& h : snap.histograms)
    if (h.name == "wivi_net_frame_to_ring_ns") f2r = static_cast<double>(h.hist.p99) * 1e-3;
  r.layers["net.frame_to_ring_p99_us"] = f2r;
}

/// Verified columns per second in a typical window: the median window
/// rate of delivered columns, scaled by the share that verified.
double verified_rate(const std::vector<std::int64_t>& done_at,
                     std::uint64_t columns_ok, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t window_ns) {
  if (done_at.empty()) return 0.0;
  return median_window_rate(done_at, start_ns, end_ns, window_ns) *
         static_cast<double>(columns_ok) / static_cast<double>(done_at.size());
}

void finish_latency(std::vector<TimedSample> lat, RunResult& r) {
  r.latency = summarize_latency(std::move(lat));
  if (!tail_supported(r.latency.count, 90.0))
    r.problems.push_back("only " + std::to_string(r.latency.count) +
                         " latency samples: fewer than " +
                         std::to_string(kMinSamplesBeyond) + " beyond p90");
}

// --------------------------------------------------------------- live/churn

struct Sensor {
  std::uint32_t id = 0;
  std::size_t world = 0;
  std::size_t slot = 0;
  std::size_t first_tick = 0;  // schedule tick of its chunk 0
};

RunResult run_open_loop(const Options& o, const std::vector<World>& worlds,
                        bool churn, int workers, bool traced) {
  RunResult r;
  const std::size_t ticks = open_loop_ticks(o.seconds);
  const std::size_t slots = churn ? kChurnSlots : kLiveSensors;

  // Which sensor streams in which slot, in schedule order.
  std::vector<Sensor> sensors;
  std::vector<std::vector<std::size_t>> by_slot(slots);
  if (churn) {
    const auto plan = churn_plan(o.seed, ticks);
    std::size_t wi = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      std::size_t tick = 0;
      for (const std::size_t len : plan[s]) {
        by_slot[s].push_back(sensors.size());
        sensors.push_back({0, wi++, s, tick});
        tick += len;
      }
    }
    // Ids in order of first appearance on the wire.
    std::vector<std::size_t> order(sensors.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::pair(sensors[a].first_tick, sensors[a].slot) <
             std::pair(sensors[b].first_tick, sensors[b].slot);
    });
    for (std::size_t i = 0; i < order.size(); ++i)
      sensors[order[i]].id = static_cast<std::uint32_t>(i + 1);
  } else {
    for (std::size_t s = 0; s < slots; ++s) {
      by_slot[s].push_back(s);
      sensors.push_back({static_cast<std::uint32_t>(s + 1), s, s, 0});
    }
  }

  EventSink sink(traced);
  rt::Engine eng(rt::Engine::Config{.num_threads = workers});
  eng.set_callback([&sink](rt::Event&& e) { sink(std::move(e)); });
  net::EngineBinding bind(eng, {pipeline_spec(), rt::IngestConfig{}, true});
  std::vector<double> sink_call_ns;
  net::ChunkSink inner = bind.sink();
  net::ChunkSink rx_sink = inner;
  if (traced) {
    sink_call_ns.reserve(slots * ticks);
    rx_sink = [&sink_call_ns, inner](std::uint32_t id, std::uint64_t seq,
                                     wivi::CVec&& c) {
      const std::int64_t t0 = steady_now_ns();
      const bool ok = inner(id, seq, std::move(c));
      sink_call_ns.push_back(static_cast<double>(steady_now_ns() - t0));
      return ok;
    };
  }
  net::ReceiverConfig rcfg;
  rcfg.enable_tcp = false;
  rcfg.registry = &eng.registry();
  net::Receiver rx(rcfg, rx_sink, bind.end_sink());
  net::Sender::Config scfg;
  scfg.port = rx.udp_port();
  net::Sender tx(scfg);
  const wivi::plan::Stats plan_before = wivi::plan::registry().stats();
  rx.start();

  Schedule sch;
  sch.period_ns = static_cast<std::int64_t>(kChunkSec * 1e9);
  sch.slots = slots;
  sch.start_ns = steady_now_ns() + 20'000'000;
  std::vector<double> late_ms;
  late_ms.reserve(ticks * slots);
  std::vector<std::size_t> cursor(slots, 0);
  std::vector<std::uint64_t> sent(sensors.size(), 0);
  for (std::size_t k = 0; k < ticks; ++k) {
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t si = by_slot[s][cursor[s]];
      const Sensor& sn = sensors[si];
      const World& w = worlds[sn.world];
      const std::size_t local = k - sn.first_tick;
      const std::int64_t due = sch.due_ns(s, k);
      spin_until(due);
      late_ms.push_back(due_latency_ms(due, steady_now_ns()));
      tx.send_chunk(sn.id, w.chunk(local));
      ++sent[si];
      if (local + 1 == w.chunks) {
        tx.send_end(sn.id);
        ++cursor[s];
      }
    }
  }
  const std::int64_t sent_ns = steady_now_ns();
  // Let the tail drain; a lost end-of-stream mark is closed by hand below.
  while (sink.finished.load(std::memory_order_acquire) < sensors.size() &&
         steady_now_ns() - sent_ns < 5'000'000'000)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rx.stop();
  rx.flush();
  bind.close_all();
  eng.drain();

  check_engine_law(eng.stats(), r);
  check_net_law(rx, r);

  const std::size_t warm = warmup_chunks();
  const auto window = static_cast<std::size_t>(
      pipeline_spec().image.tracker.music.isar.window);
  std::vector<TimedSample> lat;
  std::vector<rt::SessionId> sids;
  std::int64_t last_ns = sch.start_ns;
  std::uint64_t columns_ok = 0;
  for (std::size_t si = 0; si < sensors.size(); ++si) {
    const Sensor& sn = sensors[si];
    const World& w = worlds[sn.world];
    StreamOutcome oc;
    oc.sent = sent[si];
    oc.warmup = warm;
    if (const net::Reassembler* ra = rx.demux().sensor(sn.id)) {
      const auto& st = ra->stats();
      oc.delivered = st.chunks_delivered;
      oc.gaps = st.chunk_gaps + st.chunks_evicted;
      oc.ring_refused = st.sink_dropped_chunks;
    }
    const auto sid = bind.session(sn.id);
    if (!sid) {
      oc.session_refused = oc.delivered > 0;
      r.tally.add(oc);
      continue;
    }
    sids.push_back(*sid);
    const rt::SessionStats ss = eng.stats(*sid);
    oc.rejected = ss.chunks_rejected;
    const std::size_t accepted = static_cast<std::size_t>(
        ss.chunks_in - ss.chunks_dropped - ss.chunks_rejected);
    const SessionLog& l = sink.log(*sid);
    oc.columns_ok = verify_stream(l, w, accepted > warm ? accepted - warm : 0,
                                  false, "sensor " + std::to_string(sn.id),
                                  r.problems);
    columns_ok += oc.columns_ok;
    r.tally.add(oc);
    for (const auto& [seen, at] : l.tracks) {
      const std::size_t k = completing_chunk(seen - 1, window, kHop);
      lat.push_back({at, due_latency_ms(sch.due_ns(sn.slot, sn.first_tick + k), at)});
      last_ns = std::max(last_ns, at);
    }
  }
  finish_latency(std::move(lat), r);
  const double wall_s = static_cast<double>(last_ns - sch.start_ns) * 1e-9;
  // The offered load fixes the wall-clock column rate of an open loop, so
  // capacity here is verified columns per second the workers were busy.
  const double busy_s = busy_seconds(eng, sids);
  r.sensors_per_core = busy_s > 0 ? static_cast<double>(columns_ok) / busy_s /
                                        kColumnsPerSensorSec
                                  : 0.0;
  r.ospa_deg = mean_ospa(worlds);
  r.notes["sensors"] = std::to_string(sensors.size());
  r.notes["failures"] = r.tally.describe();

  if (traced) {
    engine_layers(eng, sink, sids, workers, wall_s, plan_before, r);
    r.layers["rt.offer_ns"] = median(sink_call_ns);
    const FailureTally& t = r.tally;
    r.layers["net.lost_chunks"] = static_cast<double>(
        t.by_cause[static_cast<int>(Cause::kWireLoss)] +
        t.by_cause[static_cast<int>(Cause::kGap)] +
        t.by_cause[static_cast<int>(Cause::kRingRefused)]);
    std::sort(late_ms.begin(), late_ms.end());
    r.layers["harness.gen_late_p99_ms"] = percentile_sorted(late_ms, 99.0);
  }
  return r;
}

// ---------------------------------------------------------------- saturate

RunResult run_closed_loop(const std::vector<World>& worlds, int workers,
                          double seconds, bool traced) {
  RunResult r;
  EventSink sink(traced);
  rt::Engine eng(rt::Engine::Config{.num_threads = workers});
  eng.set_callback([&sink](rt::Event&& e) { sink(std::move(e)); });
  const wivi::api::PipelineSpec spec = pipeline_spec();
  rt::IngestConfig ingest;
  ingest.backpressure = rt::Backpressure::kBlock;
  const std::size_t warm = warmup_chunks();
  // Never more than warm + window + 1 chunks sit in a ring: offers never
  // block.
  ingest.ring_capacity = 2 * (warm + kOutstandingColumns + 1);

  struct Feed {
    rt::SessionId sid = 0;
    std::size_t world = 0;
    std::size_t next = 0;
  };
  struct Opened {
    rt::SessionId sid;
    std::size_t world;
  };
  std::vector<Opened> opened;
  std::vector<std::vector<std::int64_t>> offer_at(kMaxSessions);
  std::vector<double> offer_ns;
  const wivi::plan::Stats plan_before = wivi::plan::registry().stats();
  // Sensors run in generations: every sensor streams one world, and once
  // all have finished the next generation opens together, so session ids
  // stay evenly spread over the shards.
  std::vector<Feed> feeds(static_cast<std::size_t>(kSensorsPerWorker * workers));
  std::size_t generation = 0;
  auto open_generation = [&] {
    for (std::size_t s = 0; s < feeds.size(); ++s) {
      const std::size_t world = (generation * feeds.size() + s) % worlds.size();
      const rt::SessionId sid = eng.open_session(spec, ingest);
      opened.push_back({sid, world});
      offer_at[sid].reserve(worlds[world].chunks);
      feeds[s] = Feed{sid, world, 0};
    }
    ++generation;
  };
  open_generation();

  const std::int64_t t0 = steady_now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  bool capped = false;
  while (steady_now_ns() < deadline) {
    const std::uint64_t seen = sink.completions.load(std::memory_order_acquire);
    bool progress = false;
    std::size_t complete = 0;
    for (Feed& f : feeds) {
      const World& w = worlds[f.world];
      const std::size_t done =
          sink.log(f.sid).columns_done.load(std::memory_order_acquire);
      while (f.next < w.chunks && f.next < warm + done + kOutstandingColumns) {
        const wivi::CSpan hop = w.chunk(f.next);
        wivi::CVec chunk(hop.begin(), hop.end());
        const std::int64_t at = steady_now_ns();
        offer_at[f.sid].push_back(at);
        const bool ok = eng.offer(f.sid, std::move(chunk));
        if (traced) offer_ns.push_back(static_cast<double>(steady_now_ns() - at));
        if (!ok) r.problems.push_back("offer refused on a kBlock ring");
        ++f.next;
        progress = true;
      }
      if (f.next == w.chunks && done + warm == w.chunks) ++complete;
    }
    if (complete == feeds.size()) {
      for (const Feed& f : feeds) eng.close_session(f.sid);
      if (opened.size() + feeds.size() >= kMaxSessions) {
        capped = true;
        break;
      }
      open_generation();
      progress = true;
    }
    if (!progress) sink.completions.wait(seen, std::memory_order_acquire);
  }
  for (const Feed& f : feeds) eng.close_session(f.sid);
  eng.drain();
  if (capped) r.notes["capped"] = "session table nearly full; run cut short";

  check_engine_law(eng.stats(), r);
  const auto window = static_cast<std::size_t>(spec.image.tracker.music.isar.window);
  std::vector<TimedSample> lat;
  std::vector<std::int64_t> done_at;
  std::vector<rt::SessionId> sids;
  std::int64_t last_ns = t0;
  std::uint64_t columns_ok = 0;
  for (const Opened& op : opened) {
    sids.push_back(op.sid);
    const rt::SessionStats ss = eng.stats(op.sid);
    StreamOutcome oc;
    oc.sent = ss.chunks_in;
    oc.delivered = ss.chunks_in;
    oc.ring_refused = ss.chunks_dropped;
    oc.rejected = ss.chunks_rejected;
    oc.warmup = warm;
    const std::size_t accepted = static_cast<std::size_t>(
        ss.chunks_in - ss.chunks_dropped - ss.chunks_rejected);
    const SessionLog& l = sink.log(op.sid);
    oc.columns_ok = verify_stream(l, worlds[op.world],
                                  accepted > warm ? accepted - warm : 0, false,
                                  "session " + std::to_string(op.sid), r.problems);
    columns_ok += oc.columns_ok;
    r.tally.add(oc);
    for (const auto& [n, at] : l.tracks) {
      const std::size_t k = completing_chunk(n - 1, window, kHop);
      lat.push_back({at, due_latency_ms(offer_at[op.sid].at(k), at)});
      done_at.push_back(at);
      last_ns = std::max(last_ns, at);
    }
  }
  finish_latency(std::move(lat), r);
  const double wall_s = static_cast<double>(last_ns - t0) * 1e-9;
  r.sensors_per_core =
      verified_rate(done_at, columns_ok, t0, deadline, 500'000'000) /
      kColumnsPerSensorSec / workers;
  r.ospa_deg = mean_ospa(worlds);
  r.notes["sessions"] = std::to_string(opened.size());
  r.notes["failures"] = r.tally.describe();
  if (traced) {
    engine_layers(eng, sink, sids, workers, wall_s, plan_before, r);
    r.layers["rt.offer_ns"] = median(offer_ns);
    r.layers["net.lost_chunks"] = 0.0;
    r.layers["harness.gen_late_p99_ms"] = 0.0;
  }
  return r;
}

// ----------------------------------------------------------------- offline

RunResult run_offline(const Options& o, const std::vector<World>& worlds,
                      int workers, bool traced) {
  RunResult r;
  EventSink sink(traced);
  rt::Engine eng(rt::Engine::Config{.num_threads = workers});
  eng.set_callback([&sink](rt::Event&& e) { sink(std::move(e)); });
  const wivi::api::PipelineSpec spec = pipeline_spec();
  const wivi::plan::Stats plan_before = wivi::plan::registry().stats();

  struct Call {
    rt::SessionId sid;
    std::size_t world;
    std::int64_t at;
  };
  std::vector<Call> calls;
  const std::int64_t t0 = steady_now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(o.seconds * 1e9);
  double in_call_ns = 0.0;
  for (std::size_t i = 0; steady_now_ns() < deadline && calls.size() + 1 < kMaxSessions;
       ++i) {
    const std::size_t wi = i % worlds.size();
    // This thread delivers the run's events, so the log learns its world
    // before the run starts (session ids are handed out in order).
    const auto next = static_cast<rt::SessionId>(eng.num_sessions());
    sink.log(next).offline = &worlds[wi];
    const std::int64_t at = steady_now_ns();
    const rt::SessionId sid = eng.run_recorded(spec, worlds[wi].sc.h);
    in_call_ns += static_cast<double>(steady_now_ns() - at);
    if (sid != next) throw std::runtime_error("offline session ids out of order");
    calls.push_back({sid, wi, at});
  }
  eng.drain();
  check_engine_law(eng.stats(), r);

  std::vector<TimedSample> lat;
  std::vector<double> call_rate;
  std::vector<rt::SessionId> sids;
  std::int64_t last_ns = t0;
  std::uint64_t columns_ok = 0;
  for (const Call& c : calls) {
    sids.push_back(c.sid);
    const World& w = worlds[c.world];
    const SessionLog& l = sink.log(c.sid);
    StreamOutcome oc;
    oc.sent = w.chunks;
    oc.delivered = w.chunks;
    oc.warmup = warmup_chunks();
    oc.columns_ok = verify_stream(l, w, w.ref.num_times(), true,
                                  "offline session " + std::to_string(c.sid),
                                  r.problems);
    columns_ok += oc.columns_ok;
    r.tally.add(oc);
    std::size_t prev = 0;
    for (const auto& [n, at] : l.tracks) {
      for (; prev < n; ++prev) lat.push_back({at, due_latency_ms(c.at, at)});
      last_ns = std::max(last_ns, at);
      // Verified columns per second of this call: the rate while working.
      call_rate.push_back(static_cast<double>(oc.columns_ok) /
                          (static_cast<double>(at - c.at) * 1e-9));
    }
  }
  finish_latency(std::move(lat), r);
  const double wall_s = static_cast<double>(last_ns - t0) * 1e-9;
  r.sensors_per_core = median(call_rate) / kColumnsPerSensorSec / workers;
  r.ospa_deg = mean_ospa(worlds);
  r.notes["sessions"] = std::to_string(calls.size());
  r.notes["failures"] = r.tally.describe();
  if (traced) {
    engine_layers(eng, sink, sids, workers, wall_s, plan_before, r);
    // run_recorded bypasses the rings and delivers every event on the
    // calling thread: busy time is the time spent inside the calls, and
    // there is no per-worker split to skew.
    r.layers["rt.worker_busy_frac"] = in_call_ns * 1e-9 / wall_s;
    r.layers["rt.worker_skew"] = 0.0;
    r.notes.erase("columns_per_worker");
    r.layers["rt.offer_ns"] = 0.0;
    r.layers["net.lost_chunks"] = 0.0;
    r.layers["harness.gen_late_p99_ms"] = 0.0;
  }
  return r;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "live" || name == "saturate" || name == "churn" ||
         name == "offline";
}

int capacity_workers(int nproc) { return std::max(1, nproc - 1); }

std::vector<World> make_workload_worlds(const Options& o) {
  std::vector<std::size_t> chunks;
  if (o.workload == "live") {
    chunks.assign(kLiveSensors, open_loop_ticks(o.seconds));
  } else if (o.workload == "churn") {
    for (const auto& slot : churn_plan(o.seed, open_loop_ticks(o.seconds)))
      chunks.insert(chunks.end(), slot.begin(), slot.end());
  } else {
    chunks.assign(kPoolWorlds, kPoolChunks);
  }
  return make_worlds(o.seed, chunks, o.nproc);
}

RunResult run_workload(const Options& o, const std::vector<World>& worlds,
                       int workers, bool traced) {
  if (o.workload == "live")
    return run_open_loop(o, worlds, false, workers > 0 ? workers : kOpenLoopWorkers,
                         traced);
  if (o.workload == "churn")
    return run_open_loop(o, worlds, true, workers > 0 ? workers : kOpenLoopWorkers,
                         traced);
  const int w = workers > 0 ? workers : capacity_workers(o.nproc);
  if (o.workload == "saturate") return run_closed_loop(worlds, w, o.seconds, traced);
  return run_offline(o, worlds, w, traced);
}

SetupResult measure_setup(const Options& o, int reps) {
  const bool with_net = o.workload == "live" || o.workload == "churn";
  const int workers =
      with_net ? kOpenLoopWorkers : capacity_workers(o.nproc);
  std::vector<double> setup, cold, warm, builds;
  for (int i = 0; i < reps; ++i) {
    wivi::plan::registry().clear();
    const std::int64_t t0 = steady_now_ns();
    rt::Engine eng(rt::Engine::Config{.num_threads = workers});
    std::optional<net::EngineBinding> bind;
    std::optional<net::Receiver> rx;
    if (with_net) {
      bind.emplace(eng, net::EngineBinding::Config{pipeline_spec(), {}, true});
      net::ReceiverConfig rcfg;
      rcfg.enable_tcp = false;
      rcfg.registry = &eng.registry();
      rx.emplace(rcfg, bind->sink(), bind->end_sink());
    }
    const std::int64_t t1 = steady_now_ns();
    const rt::SessionId a = eng.open_session(pipeline_spec());
    const std::int64_t t2 = steady_now_ns();
    const double built = static_cast<double>(wivi::plan::registry().stats().builds);
    const rt::SessionId b = eng.open_session(pipeline_spec());
    const std::int64_t t3 = steady_now_ns();
    setup.push_back(static_cast<double>(t2 - t0) * 1e-9);
    cold.push_back(static_cast<double>(t2 - t1) * 1e-6);
    warm.push_back(static_cast<double>(t3 - t2) * 1e-6);
    builds.push_back(built);
    eng.close_session(a);
    eng.close_session(b);
    eng.drain();
  }
  return {median(setup), median(cold), median(warm), median(builds)};
}

}  // namespace perfbench
