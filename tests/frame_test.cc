// Epoch framing: the frame codec must round-trip exactly, and the
// reassembler must turn every kind of wire damage — truncation, bit
// flips, splices, drops, reordering, garbage — into typed FrameErrors,
// never into a crash, a hang, or a silently misparsed frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pint/frame.h"

namespace pint {
namespace {

std::vector<std::uint8_t> random_payload(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform_int(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// One source's stream: `epochs` epochs, each with `payloads` payload
// frames of random content. Returns the concatenated wire bytes and the
// payload contents in order.
struct TestStream {
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::size_t> boundaries;  // offsets where a frame starts/ends
  std::size_t frame_count = 0;

  bool is_boundary(std::size_t offset) const {
    return std::find(boundaries.begin(), boundaries.end(), offset) !=
           boundaries.end();
  }
};

TestStream make_stream(Rng& rng, std::uint32_t source, unsigned epochs,
                       unsigned payloads, std::size_t max_payload = 200) {
  TestStream ts;
  ts.boundaries.push_back(0);
  FrameWriter writer(source);
  const auto append = [&](std::vector<std::uint8_t> bytes) {
    ts.wire.insert(ts.wire.end(), bytes.begin(), bytes.end());
    ts.boundaries.push_back(ts.wire.size());
    ++ts.frame_count;
  };
  for (unsigned e = 0; e < epochs; ++e) {
    append(writer.make_open());
    for (unsigned p = 0; p < payloads; ++p) {
      auto payload = random_payload(rng, max_payload);
      append(writer.make_payload(payload));
      ts.payloads.push_back(std::move(payload));
    }
    append(writer.make_close());
  }
  return ts;
}

// Feeds `bytes` in random-sized chunks and collects every event.
struct Collected {
  std::vector<Frame> frames;
  std::vector<FrameError> errors;
};

Collected collect(Rng& rng, std::span<const std::uint8_t> bytes,
                  bool finish = true) {
  FrameReassembler reassembler;
  Collected out;
  std::size_t off = 0;
  const auto pump = [&] {
    while (auto event = reassembler.next()) {
      if (auto* frame = std::get_if<Frame>(&*event)) {
        out.frames.push_back(std::move(*frame));
      } else {
        out.errors.push_back(std::get<FrameError>(*event));
      }
    }
  };
  while (off < bytes.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.uniform_int(97), bytes.size() - off);
    reassembler.feed(bytes.subspan(off, n));
    off += n;
    pump();
  }
  if (finish) {
    reassembler.finish();
    pump();
  }
  return out;
}

// Byte-at-a-time CRC-32 (reflected IEEE polynomial), straight from the
// definition: the reference the table-driven one must agree with.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Frame, Crc32MatchesTheStandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Frame, Crc32AgreesWithByteAtATimeAtEveryLengthAndOffset) {
  Rng rng(21);
  std::vector<std::uint8_t> buf(64 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + offset, len);
      ASSERT_EQ(crc32(bytes), reference_crc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Frame, RoundTripsThroughArbitraryChunking) {
  Rng rng(0xF4A3E);
  for (int trial = 0; trial < 20; ++trial) {
    const auto ts = make_stream(rng, /*source=*/7, /*epochs=*/3,
                                /*payloads=*/4);
    const Collected got = collect(rng, ts.wire);
    EXPECT_TRUE(got.errors.empty()) << "trial " << trial;
    ASSERT_EQ(got.frames.size(), ts.frame_count) << "trial " << trial;
    std::size_t payload_idx = 0;
    std::uint32_t expected_seq = 0;
    for (const Frame& frame : got.frames) {
      EXPECT_EQ(frame.source, 7u);
      EXPECT_EQ(frame.seq, expected_seq++);
      if (frame.type == FrameType::kPayload) {
        ASSERT_LT(payload_idx, ts.payloads.size());
        EXPECT_EQ(frame.payload, ts.payloads[payload_idx++]);
      }
    }
    EXPECT_EQ(payload_idx, ts.payloads.size());
  }
}

TEST(Frame, SingleByteFeedsWork) {
  Rng rng(0x1B);
  const auto ts = make_stream(rng, 3, 1, 3);
  FrameReassembler reassembler;
  std::size_t frames = 0;
  for (const std::uint8_t byte : ts.wire) {
    reassembler.feed(std::span(&byte, 1));
    while (auto event = reassembler.next()) {
      frames += std::holds_alternative<Frame>(*event) ? 1 : 0;
      EXPECT_TRUE(std::holds_alternative<Frame>(*event));
    }
  }
  EXPECT_EQ(frames, ts.frame_count);
}

TEST(Frame, EveryTruncationIsTypedNeverSilent) {
  Rng rng(0x7241C);
  const auto ts = make_stream(rng, 9, 2, 3, /*max_payload=*/40);
  // Cut the stream at every prefix length: the parse must terminate, and
  // a cut inside a frame must surface kTruncatedStream (a cut exactly on
  // a frame boundary is a clean short stream: no error).
  for (std::size_t cut = 0; cut <= ts.wire.size(); ++cut) {
    const Collected got =
        collect(rng, std::span(ts.wire.data(), cut));
    std::size_t bytes_of_frames = 0;
    for (const Frame& f : got.frames) {
      bytes_of_frames += kFrameHeaderBytes + f.payload.size();
    }
    if (bytes_of_frames == cut) {
      EXPECT_TRUE(got.errors.empty()) << "cut " << cut;
    } else {
      ASSERT_EQ(got.errors.size(), 1u) << "cut " << cut;
      EXPECT_EQ(got.errors[0].code, FrameErrorCode::kTruncatedStream)
          << "cut " << cut;
      EXPECT_EQ(got.errors[0].detail, cut - bytes_of_frames)
          << "cut " << cut;
    }
  }
}

TEST(Frame, BitFlipsAreDetectedAndParsingRecovers) {
  Rng rng(0xB17F11);
  for (int trial = 0; trial < 200; ++trial) {
    const auto ts = make_stream(rng, 1, 2, 3, /*max_payload=*/60);
    std::vector<std::uint8_t> corrupt = ts.wire;
    const std::size_t at = rng.uniform_int(corrupt.size());
    corrupt[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));

    const Collected got = collect(rng, corrupt);
    // Every byte of the wire is covered by a frame CRC (or is header
    // structure), so one flipped bit must cost at least one typed error
    // and at most a few frames — and must never fabricate extra frames
    // whose bytes don't check out.
    EXPECT_FALSE(got.errors.empty()) << "trial " << trial << " at " << at;
    EXPECT_LT(got.frames.size(), ts.frame_count) << "trial " << trial;
    for (const Frame& frame : got.frames) {
      EXPECT_EQ(frame.source, 1u);  // source is CRC-protected
    }
  }
}

TEST(Frame, SplicedStreamsSurfaceErrorsAndRecover) {
  Rng rng(0x5B11CE);
  std::size_t trials_with_errors = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = make_stream(rng, 1, 2, 2, 50);
    const auto b = make_stream(rng, 2, 2, 2, 50);
    // Prefix of A torn mid-frame, then a suffix of B starting mid-frame:
    // the classic reconnect-after-crash splice.
    const std::size_t cut_a = 1 + rng.uniform_int(a.wire.size() - 1);
    const std::size_t cut_b = 1 + rng.uniform_int(b.wire.size() - 1);
    std::vector<std::uint8_t> spliced(a.wire.begin(),
                                      a.wire.begin() + cut_a);
    spliced.insert(spliced.end(), b.wire.begin() + cut_b, b.wire.end());

    const Collected got = collect(rng, spliced);
    trials_with_errors += got.errors.empty() ? 0 : 1;
    // No crash, and every delivered frame is genuine: its bytes existed
    // in A or B (CRC makes fabrication vanishingly unlikely), so sources
    // can only be 1 or 2.
    std::size_t frame_bytes = 0;
    for (const Frame& frame : got.frames) {
      EXPECT_TRUE(frame.source == 1 || frame.source == 2);
      frame_bytes += kFrameHeaderBytes + frame.payload.size();
    }
    // The load-bearing property: no byte vanishes silently. Either the
    // splice happened to reconstruct a fully valid stream (possible when
    // both cuts fall the same few bytes past a boundary — magic and
    // version are frame-invariant, so A's torn prefix can complete B's
    // torn header) and every byte is accounted to a validated frame, or
    // the damage surfaced as typed errors.
    if (got.errors.empty()) {
      EXPECT_EQ(frame_bytes, spliced.size()) << "trial " << trial;
    }
  }
  // Random cuts overwhelmingly tear for real; the detector must fire for
  // nearly all of them, not just a lucky few.
  EXPECT_GT(trials_with_errors, 80u);
}

TEST(Frame, PureGarbageNeverCrashesOrYieldsFrames) {
  Rng rng(0x6A4BA6E);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> garbage(1 + rng.uniform_int(4096));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next());
    const Collected got = collect(rng, garbage);
    EXPECT_TRUE(got.frames.empty()) << "trial " << trial;
    EXPECT_FALSE(got.errors.empty()) << "trial " << trial;
  }
}

TEST(Frame, DroppedFrameShowsAsSequenceGap) {
  Rng rng(0xD209);
  FrameWriter writer(4);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(writer.make_open());
  for (int i = 0; i < 3; ++i) {
    frames.push_back(writer.make_payload(random_payload(rng, 30)));
  }
  frames.push_back(writer.make_close());

  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 2) continue;  // drop the middle payload frame
    wire.insert(wire.end(), frames[i].begin(), frames[i].end());
  }
  const Collected got = collect(rng, wire);
  ASSERT_EQ(got.errors.size(), 1u);
  EXPECT_EQ(got.errors[0].code, FrameErrorCode::kSequenceGap);
  EXPECT_EQ(got.errors[0].source, 4u);
  EXPECT_EQ(got.errors[0].detail, 1u);  // exactly one frame missing
  EXPECT_EQ(got.frames.size(), frames.size() - 1);
}

TEST(Frame, ReorderedFramesShowAsReversal) {
  Rng rng(0x2E02D);
  FrameWriter writer(6);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(writer.make_open());
  frames.push_back(writer.make_payload(random_payload(rng, 30)));
  frames.push_back(writer.make_payload(random_payload(rng, 30)));
  frames.push_back(writer.make_close());
  std::swap(frames[1], frames[2]);

  std::vector<std::uint8_t> wire;
  for (const auto& f : frames) wire.insert(wire.end(), f.begin(), f.end());
  const Collected got = collect(rng, wire);
  EXPECT_EQ(got.frames.size(), 4u);  // all frames still delivered
  ASSERT_EQ(got.errors.size(), 2u);
  EXPECT_EQ(got.errors[0].code, FrameErrorCode::kSequenceGap);
  EXPECT_EQ(got.errors[1].code, FrameErrorCode::kSequenceReversal);
}

TEST(Frame, WriterEnforcesEpochProtocol) {
  FrameWriter writer(1);
  EXPECT_THROW(writer.make_payload({}), std::logic_error);
  EXPECT_THROW(writer.make_close(), std::logic_error);
  (void)writer.make_open();
  EXPECT_THROW(writer.make_open(), std::logic_error);
  EXPECT_THROW(writer.payload_dropped(), std::logic_error);
}

TEST(Frame, CloseMarkerCountsOnlyShippedPayloads) {
  Rng rng(0xC0);
  FrameWriter writer(2);
  std::vector<std::uint8_t> wire = writer.make_open();
  for (int i = 0; i < 4; ++i) {
    const auto frame = writer.make_payload(random_payload(rng, 20));
    if (i % 2 == 0) {
      wire.insert(wire.end(), frame.begin(), frame.end());
    } else {
      writer.payload_dropped();  // backpressure dropped it
    }
  }
  const auto close = writer.make_close();
  wire.insert(wire.end(), close.begin(), close.end());
  EXPECT_EQ(writer.frames_dropped(), 2u);

  const Collected got = collect(rng, wire);
  std::size_t payloads = 0;
  std::uint32_t close_count = 0;
  for (const Frame& frame : got.frames) {
    if (frame.type == FrameType::kPayload) ++payloads;
    if (frame.type == FrameType::kEpochClose) {
      close_count = frame.close_payload_count();
    }
  }
  // The receiver can reconcile: close says 2 shipped, 2 arrived — the
  // epoch is complete despite the (counted, sequence-visible) drops.
  EXPECT_EQ(payloads, 2u);
  EXPECT_EQ(close_count, 2u);
  std::size_t gap_frames = 0;
  for (const FrameError& error : got.errors) {
    if (error.code == FrameErrorCode::kSequenceGap) {
      gap_frames += error.detail;
    }
  }
  EXPECT_EQ(gap_frames, 2u);
}

TEST(Frame, OversizedDeclaredPayloadIsRejected) {
  Rng rng(0x0E);
  FrameReassembler reassembler(/*max_payload_bytes=*/64);
  FrameWriter writer(1);
  std::vector<std::uint8_t> wire = writer.make_open();
  const auto big = writer.make_payload(std::vector<std::uint8_t>(128, 0xAB));
  wire.insert(wire.end(), big.begin(), big.end());
  reassembler.feed(wire);
  reassembler.finish();
  bool saw_oversize = false;
  std::size_t frames = 0;
  while (auto event = reassembler.next()) {
    if (auto* error = std::get_if<FrameError>(&*event)) {
      saw_oversize |= error->code == FrameErrorCode::kOversizedPayload;
    } else {
      ++frames;
    }
  }
  EXPECT_TRUE(saw_oversize);
  EXPECT_EQ(frames, 1u);  // the open marker still parses
}

TEST(Frame, ZeroCopyViewsMatchMaterializedFrames) {
  Rng rng(0x2E0C);
  const TestStream ts = make_stream(rng, /*source=*/9, /*epochs=*/3,
                                    /*payloads=*/5);

  // Reference pass: owning frames.
  Collected ref = collect(rng, ts.wire);
  ASSERT_EQ(ref.frames.size(), ts.frame_count);

  // View pass: same chunked feeding, zero-copy next_view(). Views are
  // consumed (compared/copied) before the next feed, per the contract.
  FrameReassembler reassembler;
  std::vector<Frame> viewed;
  std::size_t off = 0;
  const auto pump = [&] {
    while (auto event = reassembler.next_view()) {
      if (auto* view = std::get_if<FrameView>(&*event)) {
        Frame copy;
        copy.type = view->type;
        copy.source = view->source;
        copy.epoch = view->epoch;
        copy.seq = view->seq;
        copy.payload.assign(view->payload.begin(), view->payload.end());
        if (view->type == FrameType::kEpochClose) {
          EXPECT_EQ(view->close_payload_count(), copy.close_payload_count());
        }
        viewed.push_back(std::move(copy));
      }
    }
  };
  while (off < ts.wire.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform_int(53),
                                                ts.wire.size() - off);
    reassembler.feed(
        std::span<const std::uint8_t>(ts.wire.data() + off, n));
    off += n;
    pump();
  }
  reassembler.finish();
  pump();

  ASSERT_EQ(viewed.size(), ref.frames.size());
  for (std::size_t i = 0; i < viewed.size(); ++i) {
    EXPECT_EQ(static_cast<int>(viewed[i].type),
              static_cast<int>(ref.frames[i].type));
    EXPECT_EQ(viewed[i].source, ref.frames[i].source);
    EXPECT_EQ(viewed[i].epoch, ref.frames[i].epoch);
    EXPECT_EQ(viewed[i].seq, ref.frames[i].seq);
    EXPECT_EQ(viewed[i].payload, ref.frames[i].payload);
  }
}

}  // namespace
}  // namespace pint
