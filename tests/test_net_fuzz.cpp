// Structure-aware fuzzing of the network ingress: seeded deterministic
// mutations of valid frames (truncation, magic/version/flag/length
// tampering, CRC corruption, byte flips, splice and merge) plus pure
// random bytes, driven through the datagram parser, the TCP stream
// decoder (at random read-split sizes) and the demux. The invariant
// everywhere: malformed input produces a *typed rejection* — never a
// crash, hang, exception or accounting leak. The CI net-ingress job runs
// this binary under ASan/UBSan with libstdc++'s checked containers
// (-D_GLIBCXX_ASSERTIONS, which also catches an index past size() but
// inside capacity), which is what turns "never a crash" into "never an
// out-of-bounds access either".
//
// Seeds derive from WIVI_CHAOS_SEED (default 1) via fault::splitmix64, so
// a failing mutation reproduces exactly: re-run with the same seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/net/frame.hpp"
#include "src/net/reassembler.hpp"

namespace wivi {
namespace {

using net::FrameView;
using net::ParseStatus;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("WIVI_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// A tiny deterministic RNG over splitmix64 (same primitive the fault
/// and wire-fault layers key off).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return fault::splitmix64(state_++); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

CVec ramp_chunk(std::size_t n, double base = 0.0) {
  CVec c(n);
  for (std::size_t i = 0; i < n; ++i)
    c[i] = cdouble(base + static_cast<double>(i), -static_cast<double>(i));
  return c;
}

/// One structure-aware mutation of a valid frame. Some mutations keep the
/// frame valid (identity / CRC-preserving no-ops are fine: the harness
/// asserts "parses or rejects typed", not "always rejects"). Mutations
/// stack, so a header-field write may target a byte an earlier truncation
/// removed: such a write is skipped (its random draws still happen, so
/// the rest of the sequence does not shift).
std::vector<std::byte> mutate(std::vector<std::byte> f, Rng& rng) {
  const auto put = [&f](std::uint64_t index, std::uint64_t value) {
    if (index < f.size()) f[index] = static_cast<std::byte>(value);
  };
  switch (rng.below(8)) {
    case 0:  // truncate anywhere, including inside the header
      f.resize(rng.below(f.size() + 1));
      break;
    case 1: {  // stomp the magic
      const std::uint64_t value = rng.next();
      put(rng.below(4), value);
      break;
    }
    case 2: {  // bogus version
      const std::uint64_t lo = rng.next();
      const std::uint64_t hi = rng.next();
      put(4, lo);
      put(5, hi);
      break;
    }
    case 3:  // unknown flag bits
      put(6, rng.next() | 0x02);
      break;
    case 4: {  // length field lies (overflow or mismatch)
      const std::uint64_t value = rng.next();
      put(12 + rng.below(4), value);
      break;
    }
    case 5: {  // fragment fields lie
      const std::uint64_t value = rng.next();
      put(24 + rng.below(4), value);
      break;
    }
    case 6:  // flip a random byte anywhere (CRC catches what checks miss)
      if (!f.empty()) f[rng.below(f.size())] ^= std::byte{1};
      break;
    case 7:  // append trailing garbage (merged datagrams)
      for (std::uint64_t i = rng.below(40); i > 0; --i)
        f.push_back(static_cast<std::byte>(rng.next()));
      break;
  }
  return f;
}

std::vector<std::byte> valid_frame(Rng& rng) {
  const std::uint32_t sensor = static_cast<std::uint32_t>(rng.below(4));
  const std::uint64_t seq = rng.below(16);
  const auto frames = net::chunk_to_frames(
      sensor, seq, ramp_chunk(1 + rng.below(64)), 64 + rng.below(512));
  return frames[rng.below(frames.size())];
}

TEST(NetFuzz, DatagramParserNeverEscapesTheTaxonomy) {
  Rng rng(fault::splitmix64(chaos_seed() ^ 0xDA7A));
  std::size_t ok = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> f = valid_frame(rng);
    const std::uint64_t layers = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < layers; ++i) f = mutate(std::move(f), rng);

    FrameView v;
    std::size_t consumed = 0;
    const ParseStatus st = net::parse_frame(f, v, &consumed);
    switch (st) {  // exhaustively typed: anything else fails the test
      case ParseStatus::kOk:
        ++ok;
        ASSERT_LE(consumed, f.size());
        ASSERT_EQ(consumed, net::kHeaderSize + v.header.payload_len);
        break;
      case ParseStatus::kNeedMore:
      case ParseStatus::kBadMagic:
      case ParseStatus::kBadVersion:
      case ParseStatus::kBadFlags:
      case ParseStatus::kBadLength:
      case ParseStatus::kBadFragment:
      case ParseStatus::kBadCrc:
        ++rejected;
        break;
      default:
        FAIL() << "untyped parse status " << static_cast<int>(st);
    }
  }
  // The mutator must actually produce both outcomes to mean anything.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(NetFuzz, PureRandomBytesAlwaysRejectTyped) {
  Rng rng(fault::splitmix64(chaos_seed() ^ 0xBEEF));
  for (int iter = 0; iter < 5000; ++iter) {
    std::vector<std::byte> buf(rng.below(200));
    for (auto& b : buf) b = static_cast<std::byte>(rng.next());
    FrameView v;
    const ParseStatus st = net::parse_frame(buf, v);
    EXPECT_NE(st, ParseStatus::kOk);  // a 1-in-2^32 CRC fluke aside
    EXPECT_GE(static_cast<int>(st), static_cast<int>(ParseStatus::kNeedMore));
    EXPECT_LE(static_cast<int>(st), static_cast<int>(ParseStatus::kBadCrc));
  }
}

TEST(NetFuzz, StreamDecoderSurvivesMutatedStreamsAtAnySplit) {
  Rng rng(fault::splitmix64(chaos_seed() ^ 0x57EA));
  std::size_t total_frames = 0, total_rejects = 0;
  for (int round = 0; round < 200; ++round) {
    // A stream of valid frames with mutations spliced in.
    std::vector<std::byte> stream;
    std::size_t valid_frames = 0;
    for (std::uint64_t i = 0, n = 2 + rng.below(8); i < n; ++i) {
      std::vector<std::byte> f = valid_frame(rng);
      if (rng.below(2) == 0) {
        f = mutate(std::move(f), rng);
      } else {
        ++valid_frames;
      }
      stream.insert(stream.end(), f.begin(), f.end());
    }

    net::StreamDecoder dec(2 * (net::kHeaderSize + net::kMaxPayloadBytes));
    std::size_t frames = 0, rejects = 0, polls = 0;
    FrameView v;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(400), stream.size() - off);
      dec.push(std::span<const std::byte>(stream.data() + off, len));
      off += len;
      for (;;) {
        ASSERT_LT(++polls, stream.size() * 4 + 1000)
            << "decoder failed to make progress (seed " << chaos_seed()
            << ", round " << round << ")";
        const auto r = dec.poll(v);
        if (r == net::StreamDecoder::Result::kNeedMore) break;
        if (r == net::StreamDecoder::Result::kFrame) {
          ++frames;
        } else {
          ++rejects;
          const ParseStatus e = dec.last_error();
          ASSERT_NE(e, ParseStatus::kOk);
          ASSERT_NE(e, ParseStatus::kNeedMore);
        }
      }
    }
    // No per-round count assertion: a mutation may legitimately swallow
    // following valid frames (a truncated frame absorbs the next frame's
    // bytes into its pending payload). What must hold is progress, typed
    // rejections and bounded memory — asserted above. Unmutated streams
    // are pinned to full decode in test_net.cpp.
    (void)valid_frames;
    total_frames += frames;
    total_rejects += rejects;
  }
  // Across the whole run the mutator must exercise both paths.
  EXPECT_GT(total_frames, 0u);
  EXPECT_GT(total_rejects, 0u);
}

TEST(NetFuzz, DemuxKeepsConservationUnderMutatedInput) {
  Rng rng(fault::splitmix64(chaos_seed() ^ 0xD312));
  std::size_t delivered_chunks = 0;
  net::Reassembler::Config rcfg;
  rcfg.window_chunks = 4;
  rcfg.max_chunk_bytes = 4096;  // small cap: exercise cap-abandon too
  net::Demux demux(
      rcfg,
      [&](std::uint32_t, std::uint64_t, CVec&&) {
        ++delivered_chunks;
        return rng.below(8) != 0;  // occasionally refuse (ring full)
      },
      [](std::uint32_t) {}, /*max_sensors=*/3);

  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> f = valid_frame(rng);
    if (rng.below(2) == 0) f = mutate(std::move(f), rng);
    FrameView v;
    if (net::parse_frame(f, v) != ParseStatus::kOk) continue;
    demux.feed(v);  // must never throw, whatever the header claims
  }
  demux.flush();

  const auto s = demux.stats();
  EXPECT_EQ(s.frames_in,
            s.frames_delivered + s.frames_dup + s.frames_stale +
                s.frames_evicted + s.frames_decode_failed +
                s.frames_sink_dropped + s.frames_control + s.frames_in_flight);
  EXPECT_EQ(s.frames_in_flight, 0u);  // flush() drained everything
  EXPECT_GT(s.frames_in, 0u);
  EXPECT_GT(delivered_chunks, 0u);
}

}  // namespace
}  // namespace wivi
