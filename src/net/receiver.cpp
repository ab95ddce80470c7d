#include "src/net/receiver.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/error.hpp"
#include "src/obs/clock.hpp"

namespace wivi::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

[[noreturn]] void throw_errno(const char* what) {
  throw TypedError(ErrorCode::kIoError,
                   std::string("net::Receiver: ") + what + ": " +
                       std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

/// Bind a loopback socket of the given type; returns {fd, bound port}.
std::pair<int, std::uint16_t> bind_loopback(int type, std::uint16_t port) {
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("getsockname");
  }
  set_nonblocking(fd);
  return {fd, ntohs(bound.sin_port)};
}

}  // namespace

Receiver::Metrics::Metrics(obs::Registry& r)
    : frames_in(r.counter("wivi_net_frames_in_total")),
      frames_accepted(r.counter("wivi_net_frames_accepted_total")),
      frames_rejected(r.counter("wivi_net_frames_rejected_total")),
      reject_bad_magic(r.counter("wivi_net_reject_bad_magic_total")),
      reject_bad_version(r.counter("wivi_net_reject_bad_version_total")),
      reject_bad_flags(r.counter("wivi_net_reject_bad_flags_total")),
      reject_bad_length(r.counter("wivi_net_reject_bad_length_total")),
      reject_bad_fragment(r.counter("wivi_net_reject_bad_fragment_total")),
      reject_bad_crc(r.counter("wivi_net_reject_bad_crc_total")),
      bytes_in(r.counter("wivi_net_bytes_in_total")),
      frames_delivered(r.counter("wivi_net_frames_delivered_total")),
      frames_dup(r.counter("wivi_net_frames_dup_total")),
      frames_stale(r.counter("wivi_net_frames_stale_total")),
      frames_evicted(r.counter("wivi_net_frames_evicted_total")),
      frames_decode_failed(r.counter("wivi_net_frames_decode_failed_total")),
      frames_sink_dropped(r.counter("wivi_net_frames_sink_dropped_total")),
      frames_control(r.counter("wivi_net_frames_control_total")),
      chunks_delivered(r.counter("wivi_net_chunks_delivered_total")),
      chunks_evicted(r.counter("wivi_net_chunks_evicted_total")),
      chunk_gaps(r.counter("wivi_net_chunk_gaps_total")),
      ring_full_drops(r.counter("wivi_net_ring_full_drops_total")),
      sink_errors(r.counter("wivi_net_sink_errors_total")),
      frames_in_flight(r.gauge("wivi_net_frames_in_flight")),
      sensors(r.gauge("wivi_net_sensors")),
      frame_to_ring_ns(r.histogram("wivi_net_frame_to_ring_ns")) {}

Receiver::Receiver(ReceiverConfig cfg, ChunkSink sink, EndSink end)
    : cfg_(cfg),
      demux_(
          cfg.reassembly,
          // The sink wrapper is where frame-to-ring latency and ring-full
          // drops are observed; it forwards to the caller's sink verbatim.
          // A sink that throws (say, an engine refusing to open the
          // sensor's session) must not unwind through the reassembler or
          // the poll thread: the chunk counts as refused (sink-dropped, so
          // the reassembly conservation law holds) and as a sink error.
          [this, user = std::move(sink)](std::uint32_t sensor_id,
                                         std::uint64_t chunk_seq,
                                         CVec&& chunk) -> bool {
            bool ok = true;
            if (user) {
              try {
                ok = user(sensor_id, chunk_seq, std::move(chunk));
              } catch (...) {
                m_->sink_errors.add(1);
                return false;
              }
            }
            if (ok) {
              m_->frame_to_ring_ns.record(static_cast<std::uint64_t>(
                  std::max<std::int64_t>(0, obs::now_ns() - arrival_ns_)));
            } else {
              m_->ring_full_drops.add(1);
            }
            return ok;
          },
          [this, user = std::move(end)](std::uint32_t sensor_id) {
            if (!user) return;
            try {
              user(sensor_id);
            } catch (...) {
              m_->sink_errors.add(1);
            }
          },
          cfg.max_sensors) {
  if (cfg_.registry == nullptr) {
    own_reg_ = std::make_unique<obs::Registry>();
    reg_ = own_reg_.get();
  } else {
    reg_ = cfg_.registry;
  }
  m_ = std::make_unique<Metrics>(*reg_);
  buf_.resize(kReadChunk);
  if (cfg_.enable_udp) open_udp();
  if (cfg_.enable_tcp) open_tcp();
  WIVI_REQUIRE(udp_fd_ >= 0 || tcp_fd_ >= 0,
               "net::Receiver needs at least one transport enabled");
}

Receiver::~Receiver() {
  stop();
  for (Conn& c : conns_) ::close(c.fd);
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
}

void Receiver::open_udp() {
  auto [fd, port] = bind_loopback(SOCK_DGRAM, cfg_.udp_port);
  udp_fd_ = fd;
  udp_port_ = port;
}

void Receiver::open_tcp() {
  auto [fd, port] = bind_loopback(SOCK_STREAM, cfg_.tcp_port);
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_errno("listen");
  }
  tcp_fd_ = fd;
  tcp_port_ = port;
}

void Receiver::reject(ParseStatus cause) {
  ++wire_.frames_in;
  ++wire_.frames_rejected;
  m_->frames_in.add(1);
  m_->frames_rejected.add(1);
  switch (cause) {
    case ParseStatus::kBadMagic:
      ++wire_.reject_bad_magic;
      m_->reject_bad_magic.add(1);
      break;
    case ParseStatus::kBadVersion:
      ++wire_.reject_bad_version;
      m_->reject_bad_version.add(1);
      break;
    case ParseStatus::kBadFlags:
      ++wire_.reject_bad_flags;
      m_->reject_bad_flags.add(1);
      break;
    case ParseStatus::kBadFragment:
      ++wire_.reject_bad_fragment;
      m_->reject_bad_fragment.add(1);
      break;
    case ParseStatus::kBadCrc:
      ++wire_.reject_bad_crc;
      m_->reject_bad_crc.add(1);
      break;
    // kNeedMore on a datagram means a truncated frame: a datagram is
    // never a prefix, so it lands in the length bucket with kBadLength.
    case ParseStatus::kNeedMore:
    case ParseStatus::kBadLength:
    default:
      ++wire_.reject_bad_length;
      m_->reject_bad_length.add(1);
      break;
  }
}

void Receiver::accept_frame(const FrameView& view,
                            std::span<const std::byte> raw) {
  ++wire_.frames_in;
  ++wire_.frames_accepted;
  m_->frames_in.add(1);
  m_->frames_accepted.add(1);
  if (cfg_.capture != nullptr) cfg_.capture->append(arrival_ns_, raw);
  demux_.feed(view);
}

void Receiver::drain_udp() {
  for (;;) {
    const ssize_t n = ::recv(udp_fd_, buf_.data(), buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN/EWOULDBLOCK: drained
    }
    ++wire_.datagrams_in;
    if (n == 0) continue;  // zero-length datagram: nothing to parse
    arrival_ns_ = obs::now_ns();
    wire_.bytes_in += static_cast<std::uint64_t>(n);
    m_->bytes_in.add(static_cast<std::uint64_t>(n));
    const std::span<const std::byte> dgram(buf_.data(),
                                           static_cast<std::size_t>(n));
    FrameView view;
    std::size_t consumed = 0;
    const ParseStatus st = parse_frame(dgram, view, &consumed);
    // One datagram must be exactly one frame: trailing bytes mean the
    // sender and header disagree about the length.
    if (st == ParseStatus::kOk && consumed == dgram.size())
      accept_frame(view, dgram);
    else if (st == ParseStatus::kOk)
      reject(ParseStatus::kBadLength);
    else
      reject(st);
  }
}

void Receiver::accept_connections() {
  for (;;) {
    const int fd = ::accept(tcp_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (conns_.size() >= cfg_.max_connections) {
      ++wire_.connections_refused;
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    ++wire_.connections_in;
    conns_.push_back(Conn{fd, StreamDecoder{}});
  }
}

void Receiver::decode_stream(Conn& conn) {
  FrameView view;
  for (;;) {
    switch (conn.decoder.poll(view)) {
      case StreamDecoder::Result::kFrame: {
        // The capture stores the re-encoded frame (header + payload are
        // contiguous in the decoder buffer, so the raw bytes are simply
        // the payload span widened back over the header).
        const std::span<const std::byte> raw(
            view.payload.data() - kHeaderSize,
            kHeaderSize + view.payload.size());
        accept_frame(view, raw);
        break;
      }
      case StreamDecoder::Result::kReject:
        reject(conn.decoder.last_error());
        break;
      case StreamDecoder::Result::kNeedMore:
        return;
    }
  }
}

bool Receiver::drain_connection(Conn& conn) {
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf_.data(), buf_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;  // EAGAIN: drained, connection stays
    }
    if (n == 0) return false;  // peer closed
    arrival_ns_ = obs::now_ns();
    wire_.bytes_in += static_cast<std::uint64_t>(n);
    m_->bytes_in.add(static_cast<std::uint64_t>(n));
    conn.decoder.push(
        std::span<const std::byte>(buf_.data(), static_cast<std::size_t>(n)));
    decode_stream(conn);
  }
}

std::size_t Receiver::poll_once(int timeout_ms) {
  const std::uint64_t before = wire_.frames_accepted;

  std::vector<pollfd> fds;
  fds.reserve(2 + conns_.size());
  if (udp_fd_ >= 0) fds.push_back({udp_fd_, POLLIN, 0});
  if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
  for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return 0;

  std::size_t idx = 0;
  if (udp_fd_ >= 0) {
    if (fds[idx].revents & (POLLIN | POLLERR | POLLHUP)) drain_udp();
    ++idx;
  }
  if (tcp_fd_ >= 0) {
    if (fds[idx].revents & POLLIN) accept_connections();
    ++idx;
  }
  // Walk connections by index against the snapshot taken above; closed
  // ones are compacted afterwards so the pollfd mapping stays aligned.
  std::vector<std::size_t> dead;
  for (std::size_t c = 0; c < conns_.size() && idx + c < fds.size(); ++c) {
    if (fds[idx + c].revents & (POLLIN | POLLERR | POLLHUP)) {
      if (!drain_connection(conns_[c])) dead.push_back(c);
    }
  }
  for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
    ::close(conns_[*it].fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(*it));
  }

  publish_reassembly_metrics();
  return static_cast<std::size_t>(wire_.frames_accepted - before);
}

void Receiver::publish_reassembly_metrics() {
  const Demux::Stats now = demux_.stats();
  const Demux::Stats& old = last_reasm_;
  m_->frames_delivered.add(now.frames_delivered - old.frames_delivered);
  m_->frames_dup.add(now.frames_dup - old.frames_dup);
  m_->frames_stale.add(now.frames_stale - old.frames_stale);
  m_->frames_evicted.add(now.frames_evicted - old.frames_evicted);
  m_->frames_decode_failed.add(now.frames_decode_failed -
                               old.frames_decode_failed);
  m_->frames_sink_dropped.add(now.frames_sink_dropped -
                              old.frames_sink_dropped);
  m_->frames_control.add(now.frames_control - old.frames_control);
  m_->chunks_delivered.add(now.chunks_delivered - old.chunks_delivered);
  m_->chunks_evicted.add(now.chunks_evicted - old.chunks_evicted);
  m_->chunk_gaps.add(now.chunk_gaps - old.chunk_gaps);
  m_->frames_in_flight.set(
      static_cast<std::int64_t>(now.frames_in_flight));
  m_->sensors.set(static_cast<std::int64_t>(demux_.num_sensors()));
  last_reasm_ = now;
}

void Receiver::flush() {
  demux_.flush();
  publish_reassembly_metrics();
}

void Receiver::run_loop() {
  while (running_.load(std::memory_order_relaxed)) poll_once(10);
}

void Receiver::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { run_loop(); });
}

void Receiver::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

}  // namespace wivi::net
