/// @file
/// The network ingress front end: non-blocking UDP + TCP sockets →
/// FrameParser → Demux → per-sensor chunk streams (DESIGN.md §13).
///
/// One Receiver owns the listening sockets (loopback by default, port 0 =
/// kernel-assigned, discovered via udp_port()/tcp_port()), a StreamDecoder
/// per TCP connection, and one Demux routing every accepted frame to its
/// sensor's Reassembler. Completed chunks leave through the caller's
/// ChunkSink — in the live engine path that is net::EngineBinding, whose
/// sink is an rt::Engine::offer (a lock-free ring push; a false return is
/// counted as a ring-full drop, never a stall).
///
/// All socket work happens on one thread: either the caller's, via
/// poll_once() (deterministic tests drive ingest this way), or the
/// background thread start() spawns. poll(2) multiplexes the UDP socket,
/// the TCP accept socket and every live connection.
///
/// Telemetry: the receiver registers the `wivi_net_*` metric family in
/// the registry you hand it — pass rt::Engine::registry() and the metrics
/// ride along in Engine::snapshot()'s JSON/Prometheus export. Wire-level
/// accounting obeys frames_in == accepted + rejected; accepted frames
/// then obey the reassembler's conservation law (reassembler.hpp). An
/// exception thrown by the ChunkSink or EndSink never escapes poll_once()
/// or the polling thread: it is counted in `wivi_net_sink_errors_total`,
/// and a throwing ChunkSink's chunk is refused (sink-dropped) like a full
/// ring's.
///
/// Capture tap: give the config a CaptureWriter and every *accepted*
/// frame is appended with its arrival timestamp — the recording a
/// Replayer later feeds through an identical Demux, which is what makes
/// replay bit-identical to the live run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/net/capture.hpp"
#include "src/net/frame.hpp"
#include "src/net/reassembler.hpp"
#include "src/obs/metrics.hpp"

namespace wivi::net {

/// @addtogroup wivi_net
/// @{

/// Receiver construction knobs.
struct ReceiverConfig {
  bool enable_udp = true;       ///< open the UDP datagram socket
  bool enable_tcp = true;       ///< open the TCP accept socket
  std::uint16_t udp_port = 0;   ///< 0 = kernel-assigned (see udp_port())
  std::uint16_t tcp_port = 0;   ///< 0 = kernel-assigned (see tcp_port())
  /// Per-sensor reassembly window configuration.
  Reassembler::Config reassembly;
  /// Sensor-table bound forwarded to Demux.
  std::size_t max_sensors = 1024;
  /// Live TCP connections accepted at once; further accepts are closed.
  std::size_t max_connections = 64;
  /// Accepted-frame capture tap (not owned; nullptr = no capture).
  CaptureWriter* capture = nullptr;
  /// Home of the `wivi_net_*` metrics (not owned). Pass
  /// rt::Engine::registry() to export them with the engine's snapshot;
  /// nullptr uses a private registry (metrics() still works).
  obs::Registry* registry = nullptr;
};

/// Frames-presented accounting at the wire boundary (before reassembly).
/// Exhaustive: frames_in == frames_accepted + frames_rejected, and
/// frames_rejected == sum of the per-cause rejects. Updated only on the
/// polling thread; exact once the receiver is stopped.
struct WireStats {
  std::uint64_t datagrams_in = 0;      ///< UDP datagrams received
  std::uint64_t connections_in = 0;    ///< TCP connections accepted
  std::uint64_t connections_refused = 0; ///< accepts over max_connections
  std::uint64_t bytes_in = 0;          ///< wire bytes received
  std::uint64_t frames_in = 0;         ///< frames presented to the parser
  std::uint64_t frames_accepted = 0;   ///< parsed OK, handed to the Demux
  std::uint64_t frames_rejected = 0;   ///< typed parse rejections
  std::uint64_t reject_bad_magic = 0;   ///< ParseStatus::kBadMagic
  std::uint64_t reject_bad_version = 0; ///< ParseStatus::kBadVersion
  std::uint64_t reject_bad_flags = 0;   ///< ParseStatus::kBadFlags
  std::uint64_t reject_bad_length = 0;  ///< kBadLength (+ short datagrams)
  std::uint64_t reject_bad_fragment = 0; ///< ParseStatus::kBadFragment
  std::uint64_t reject_bad_crc = 0;     ///< ParseStatus::kBadCrc
};

/// The UDP+TCP framed-ingress receiver.
class Receiver {
 public:
  /// Open the configured sockets (throws TypedError of kIoError when a
  /// socket cannot be created or bound) and stand ready to poll.
  /// Completed chunks go to `sink`; end-of-stream marks to `end`.
  Receiver(ReceiverConfig cfg, ChunkSink sink, EndSink end = nullptr);
  ~Receiver();  ///< stop()s and closes every socket.

  Receiver(const Receiver&) = delete;             ///< Non-copyable.
  Receiver& operator=(const Receiver&) = delete;  ///< Non-copyable.

  /// The UDP port actually bound (resolves port 0), 0 when UDP disabled.
  [[nodiscard]] std::uint16_t udp_port() const noexcept { return udp_port_; }
  /// The TCP port actually bound, 0 when TCP disabled.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Service the sockets once from the calling thread: wait up to
  /// `timeout_ms` for readiness, drain whatever arrived, return the
  /// number of frames accepted this call. The deterministic-test driver.
  std::size_t poll_once(int timeout_ms = 0);

  /// Spawn the polling thread (poll_once in a loop). Idempotent.
  void start();
  /// Stop and join the polling thread (the sockets stay open; poll_once
  /// still works). Idempotent; the destructor calls it.
  void stop();

  /// Deliver every still-deliverable partial chunk and abandon the rest
  /// (Demux::flush) — call at end of test/run when streams never sent
  /// their end-of-stream mark.
  void flush();

  /// Wire-boundary accounting (exact once the polling thread is stopped).
  [[nodiscard]] const WireStats& wire_stats() const noexcept { return wire_; }
  /// The frame router (its stats() is the reassembly conservation law).
  [[nodiscard]] const Demux& demux() const noexcept { return demux_; }
  /// The registry holding the `wivi_net_*` metrics (the one configured,
  /// or the private fallback).
  [[nodiscard]] obs::Registry& metrics() noexcept { return *reg_; }

 private:
  struct Conn {
    int fd = -1;
    StreamDecoder decoder;
  };
  /// The `wivi_net_*` metric family, interned once (DESIGN.md §10).
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    obs::Counter& frames_in;
    obs::Counter& frames_accepted;
    obs::Counter& frames_rejected;
    obs::Counter& reject_bad_magic;
    obs::Counter& reject_bad_version;
    obs::Counter& reject_bad_flags;
    obs::Counter& reject_bad_length;
    obs::Counter& reject_bad_fragment;
    obs::Counter& reject_bad_crc;
    obs::Counter& bytes_in;
    obs::Counter& frames_delivered;
    obs::Counter& frames_dup;
    obs::Counter& frames_stale;
    obs::Counter& frames_evicted;
    obs::Counter& frames_decode_failed;
    obs::Counter& frames_sink_dropped;
    obs::Counter& frames_control;
    obs::Counter& chunks_delivered;
    obs::Counter& chunks_evicted;
    obs::Counter& chunk_gaps;
    obs::Counter& ring_full_drops;
    obs::Counter& sink_errors;  ///< exceptions caught from either sink
    obs::Gauge& frames_in_flight;
    obs::Gauge& sensors;
    obs::Histogram& frame_to_ring_ns;
  };

  void open_udp();
  void open_tcp();
  void drain_udp();
  void accept_connections();
  bool drain_connection(Conn& conn);  ///< false = connection closed
  void decode_stream(Conn& conn);
  void reject(ParseStatus cause);
  void accept_frame(const FrameView& view, std::span<const std::byte> raw);
  void publish_reassembly_metrics();
  void run_loop();

  ReceiverConfig cfg_;
  Demux demux_;
  std::unique_ptr<obs::Registry> own_reg_;  ///< fallback when none given
  obs::Registry* reg_ = nullptr;
  std::unique_ptr<Metrics> m_;
  WireStats wire_;
  Demux::Stats last_reasm_;  ///< last published reassembly stats (deltas)

  int udp_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;
  std::vector<Conn> conns_;
  std::vector<std::byte> buf_;       ///< datagram / read scratch
  std::int64_t arrival_ns_ = 0;      ///< arrival stamp of the frame in flight

  std::thread thread_;
  std::atomic<bool> running_{false};
};

/// @}

}  // namespace wivi::net
