// Tests for the PINT extensions: wire-format bit packing, path-change
// detection under multipath routing (Section 7), and the bit-vector decode
// fast path (Section 4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coding/encoder.h"
#include "coding/hashed_decoder.h"
#include "coding/peeling_decoder.h"
#include "common/rng.h"
#include "pint/framework.h"
#include "pint/path_change.h"
#include "pint/wire_format.h"

namespace pint {
namespace {

// --- wire format -------------------------------------------------------------

TEST(WireFormat, RoundTripMixedWidths) {
  const std::vector<unsigned> widths{8, 3, 1, 16, 64, 5};
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Digest> lanes;
    for (unsigned w : widths) lanes.push_back(rng.next() & low_bits_mask(w));
    const auto bytes = pack_digests(lanes, widths);
    EXPECT_EQ(bytes.size(), wire_bytes(widths));
    EXPECT_EQ(unpack_digests(bytes, widths), lanes);
  }
}

TEST(WireFormat, SixteenBitBudgetIsTwoBytes) {
  const std::vector<unsigned> widths{8, 8};
  const std::vector<Digest> lanes{0xAB, 0xCD};
  const auto bytes = pack_digests(lanes, widths);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
}

TEST(WireFormat, OddBitsPadToByte) {
  const std::vector<unsigned> widths{3, 4};  // 7 bits -> 1 byte
  EXPECT_EQ(wire_bytes(widths), 1u);
  const auto bytes = pack_digests(std::vector<Digest>{0b101, 0b1100}, widths);
  ASSERT_EQ(bytes.size(), 1u);
  const auto lanes = unpack_digests(bytes, widths);
  EXPECT_EQ(lanes[0], 0b101u);
  EXPECT_EQ(lanes[1], 0b1100u);
}

TEST(WireFormat, RejectsBadInput) {
  EXPECT_THROW(
      pack_digests(std::vector<Digest>{1}, std::vector<unsigned>{1, 2}),
      std::invalid_argument);
  EXPECT_THROW(
      pack_digests(std::vector<Digest>{4}, std::vector<unsigned>{2}),
      std::invalid_argument);  // value exceeds width
  EXPECT_THROW(
      unpack_digests(std::vector<std::uint8_t>{}, std::vector<unsigned>{8}),
      std::invalid_argument);
  EXPECT_THROW(
      pack_digests(std::vector<Digest>{0}, std::vector<unsigned>{0}),
      std::invalid_argument);
  // The same checks on the caller-buffer variants, past the first word.
  std::vector<std::uint8_t> out(16);
  std::vector<Digest> lanes(2);
  EXPECT_THROW(pack_digests_into(std::vector<Digest>{1, 1},
                                 std::vector<unsigned>{8, 65}, out),
               std::invalid_argument);
  EXPECT_THROW(unpack_digests_into(out, std::vector<unsigned>{0, 8}, lanes),
               std::invalid_argument);
  EXPECT_THROW(pack_digests_into(std::vector<Digest>{0, 8},
                                 std::vector<unsigned>{64, 3}, out),
               std::invalid_argument);  // value exceeds width
  EXPECT_THROW(pack_digests_into(std::vector<Digest>{0, 0},
                                 std::vector<unsigned>{64, 64},
                                 std::span<std::uint8_t>(out.data(), 15)),
               std::invalid_argument);
  EXPECT_THROW(
      unpack_digests_into(std::span<const std::uint8_t>(out.data(), 15),
                          std::vector<unsigned>{64, 64}, lanes),
      std::invalid_argument);
  EXPECT_THROW(unpack_digests_into(out, std::vector<unsigned>{8, 8, 8}, lanes),
               std::invalid_argument);
}

// Bit-at-a-time reference for the wire layout: lane i's bit b lands at
// stream bit (sum of earlier widths) + b, LSB-first within each byte.
std::vector<std::uint8_t> reference_pack(const std::vector<Digest>& lanes,
                                         const std::vector<unsigned>& widths) {
  std::vector<std::uint8_t> out(wire_bytes(widths), 0);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    for (unsigned b = 0; b < widths[i]; ++b, ++bit_pos) {
      if ((lanes[i] >> b) & 1) {
        out[bit_pos >> 3] |= static_cast<std::uint8_t>(1u << (bit_pos & 7));
      }
    }
  }
  return out;
}

std::vector<Digest> reference_unpack(const std::vector<std::uint8_t>& bytes,
                                     const std::vector<unsigned>& widths) {
  std::vector<Digest> out;
  std::size_t bit_pos = 0;
  for (unsigned w : widths) {
    Digest v = 0;
    for (unsigned b = 0; b < w; ++b, ++bit_pos) {
      if ((bytes[bit_pos >> 3] >> (bit_pos & 7)) & 1) v |= Digest{1} << b;
    }
    out.push_back(v);
  }
  return out;
}

TEST(WireFormat, EveryWidthMatchesBitAtATimeReference) {
  Rng rng(11);
  // Two lanes of each width alone, then behind a 7-, 14-, ..., 63-bit
  // prefix lane, so they start at many byte and word alignments.
  for (unsigned w = 1; w <= 64; ++w) {
    for (unsigned prefix = 0; prefix < 64; prefix += 7) {
      std::vector<unsigned> widths;
      if (prefix > 0) widths.push_back(prefix);
      widths.push_back(w);
      widths.push_back(w);
      std::vector<Digest> lanes;
      for (unsigned lw : widths) {
        lanes.push_back(rng.next() & low_bits_mask(lw));
      }
      const auto bytes = pack_digests(lanes, widths);
      ASSERT_EQ(bytes, reference_pack(lanes, widths)) << w << "/" << prefix;
      ASSERT_EQ(unpack_digests(bytes, widths), lanes) << w << "/" << prefix;
    }
  }
}

TEST(WireFormat, LongRandomLayoutsMatchReference) {
  Rng rng(12);
  for (int trial = 0; trial < 500; ++trial) {
    // 1..24 lanes of any width: totals run far past 64 bits.
    std::vector<unsigned> widths(1 + rng.uniform_int(24));
    for (unsigned& w : widths) {
      w = 1 + static_cast<unsigned>(rng.uniform_int(64));
    }
    std::vector<Digest> lanes;
    for (unsigned w : widths) lanes.push_back(rng.next() & low_bits_mask(w));
    const auto bytes = pack_digests(lanes, widths);
    ASSERT_EQ(bytes, reference_pack(lanes, widths));
    // Unpack from arbitrary bytes, with trailing slack past the layout:
    // only the layout's own bits may count.
    std::vector<std::uint8_t> wire(bytes.size() + rng.uniform_int(9));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next());
    std::vector<Digest> unpacked(widths.size());
    ASSERT_EQ(unpack_digests_into(wire, widths, unpacked), widths.size());
    ASSERT_EQ(unpacked, reference_unpack(wire, widths));
    // pack_digests_into writes exactly wire_bytes() bytes.
    std::vector<std::uint8_t> into(bytes.size() + 4, 0xEE);
    ASSERT_EQ(pack_digests_into(lanes, widths, into), bytes.size());
    ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(), into.begin()));
    for (std::size_t i = bytes.size(); i < into.size(); ++i) {
      ASSERT_EQ(into[i], 0xEE);
    }
  }
}

// A framework whose packets carry 20 + 20 + 44 = 84 bits: lanes wider than
// a byte, one of them straddling the 64-bit word boundary.
PintFramework::Builder wide_lane_builder() {
  PathTracingConfig tuning;
  tuning.bits = 20;
  tuning.instances = 2;
  PintFramework::Builder builder;
  builder.global_bit_budget(84)
      .seed(0x3141)
      .switch_universe({1, 2, 3, 4, 5, 6})
      .add_query(make_path_query("path", 40, 1.0, tuning))
      .add_query(make_dynamic_query(
          "latency", std::string(extractor::kHopLatency), 44, 1.0));
  return builder;
}

TEST(WireFormat, FrameworkWireMatchesReferenceLayout) {
  const auto fw = wide_lane_builder().build_or_throw();
  Rng rng(13);
  std::vector<unsigned> widths(fw->max_lanes());
  for (PacketId id = 1; id <= 300; ++id) {
    Packet tx;
    tx.id = id;
    widths.resize(fw->max_lanes());
    widths.resize(fw->lane_widths(id, widths));
    for (unsigned w : widths) {
      tx.digests.push_back(rng.next() & low_bits_mask(w));
    }
    const std::vector<std::uint8_t> wire = fw->pack_wire(tx);
    ASSERT_EQ(wire, reference_pack(tx.digests, widths));
    // unpack_wire reuses the receiving packet's lanes: stale contents and
    // a stale lane count must not leak through.
    Packet rx;
    rx.id = id;
    rx.digests.assign(1 + id % 5, ~Digest{0});
    fw->unpack_wire(wire, rx);
    ASSERT_EQ(rx.digests, tx.digests);
  }
}

TEST(WireFormat, ShortBufferThrowsAndLeavesDigestsUntouched) {
  const auto fw = wide_lane_builder().build_or_throw();
  for (PacketId id = 1; id <= 50; ++id) {
    std::vector<unsigned> widths(fw->max_lanes());
    widths.resize(fw->lane_widths(id, widths));
    if (widths.empty()) continue;
    const std::vector<std::uint8_t> wire(wire_bytes(widths) - 1, 0xFF);
    Packet rx;
    rx.id = id;
    rx.digests = {7, 8, 9};
    EXPECT_THROW(fw->unpack_wire(wire, rx), std::invalid_argument);
    EXPECT_EQ(rx.digests, (std::vector<Digest>{7, 8, 9}));
  }
}

// --- path change detection ---------------------------------------------------

class PathChangeFixture : public ::testing::Test {
 protected:
  static constexpr unsigned kHops = 6;
  static constexpr unsigned kBits = 8;

  PathChangeFixture()
      : root_(777), scheme_(make_multilayer_scheme(kHops)),
        hashes_(make_instance_hashes(root_, 0)) {}

  Digest encode(PacketId p, const std::vector<SwitchId>& path) const {
    Digest d = 0;
    for (HopIndex i = 1; i <= path.size(); ++i) {
      d = encode_step(scheme_, hashes_, p, i, d, path[i - 1], kBits);
    }
    return d;
  }

  GlobalHash root_;
  SchemeConfig scheme_;
  InstanceHashes hashes_;
};

TEST_F(PathChangeFixture, ConsistentPacketsRaiseNothing) {
  const std::vector<SwitchId> path{1, 2, 3, 4, 5, 6};
  PathChangeDetector det(kHops, scheme_, hashes_, kBits);
  for (HopIndex i = 1; i <= kHops; ++i) det.set_known(i, path[i - 1]);
  for (PacketId p = 1; p <= 5000; ++p) {
    EXPECT_FALSE(det.check(p, encode(p, path)).has_value()) << p;
  }
}

TEST_F(PathChangeFixture, RouteChangeDetectedQuickly) {
  const std::vector<SwitchId> old_path{1, 2, 3, 4, 5, 6};
  const std::vector<SwitchId> new_path{1, 2, 9, 4, 5, 6};  // hop 3 rerouted
  PathChangeDetector det(kHops, scheme_, hashes_, kBits);
  for (HopIndex i = 1; i <= kHops; ++i) det.set_known(i, old_path[i - 1]);

  // Expected detection within a few packets: per-Baseline-packet detection
  // probability is ~ (1/k) * (1 - 2^-8) for the changed hop... but any
  // baseline packet carrying hop 3 mismatches.
  PacketId p = 1;
  std::optional<HopIndex> hit;
  while (!hit && p < 2000) {
    hit = det.check(p, encode(p, new_path));
    ++p;
  }
  ASSERT_TRUE(hit.has_value());
  EXPECT_LT(p, 500u);
}

TEST_F(PathChangeFixture, DetectionProbabilityMatchesPaper) {
  EXPECT_NEAR(
      PathChangeDetector(kHops, scheme_, hashes_, 8).detection_probability(),
      1.0 - 1.0 / 256.0, 1e-12);
  EXPECT_NEAR(
      PathChangeDetector(kHops, scheme_, hashes_, 1).detection_probability(),
      0.5, 1e-12);
}

TEST_F(PathChangeFixture, UnknownHopsAreUninformative) {
  PathChangeDetector det(kHops, scheme_, hashes_, kBits);
  EXPECT_EQ(det.known_hops(), 0u);
  const std::vector<SwitchId> path{1, 2, 3, 4, 5, 6};
  // Nothing known -> nothing can contradict.
  for (PacketId p = 1; p <= 500; ++p) {
    EXPECT_FALSE(det.check(p, encode(p, path)).has_value());
  }
}

// --- bit-vector fast path ----------------------------------------------------

TEST(FastPath, MakeFastRoundsProbabilities) {
  SchemeConfig cfg = make_multilayer_scheme(25);
  const SchemeConfig fast = make_fast(cfg);
  ASSERT_TRUE(fast.use_bit_vectors);
  ASSERT_EQ(fast.layer_rounds.size(), fast.layer_probs.size());
  for (std::size_t l = 0; l < fast.layer_probs.size(); ++l) {
    EXPECT_DOUBLE_EQ(fast.layer_probs[l],
                     std::pow(0.5, fast.layer_rounds[l]));
    // Within sqrt(2) of the original probability (footnote 9).
    EXPECT_LE(fast.layer_probs[l] / cfg.layer_probs[l], 1.5);
    EXPECT_GE(fast.layer_probs[l] / cfg.layer_probs[l], 0.6);
  }
}

TEST(FastPath, EncoderAndDecoderAgreeOnParticipants) {
  const unsigned k = 40;
  const SchemeConfig fast = make_fast(make_multilayer_scheme(k));
  GlobalHash root(31337);
  const InstanceHashes h = make_instance_hashes(root, 0);
  for (PacketId p = 1; p <= 2000; ++p) {
    for (unsigned layer = 1; layer <= fast.num_layers(); ++layer) {
      const auto hops = xor_layer_hops(fast, h, p, k, layer);
      std::vector<HopIndex> via_acts;
      for (HopIndex i = 1; i <= k; ++i) {
        if (xor_layer_acts(fast, h, p, i, layer)) via_acts.push_back(i);
      }
      ASSERT_EQ(hops, via_acts) << "packet " << p << " layer " << layer;
    }
  }
}

TEST(FastPath, ParticipationProbabilityIsPowerOfTwo) {
  const unsigned k = 64;
  SchemeConfig fast = make_fast(make_xor_scheme(16));  // p=1/16 exactly
  ASSERT_EQ(fast.layer_rounds[0], 4u);
  GlobalHash root(99);
  const InstanceHashes h = make_instance_hashes(root, 0);
  std::uint64_t total = 0;
  const int packets = 30000;
  for (PacketId p = 1; p <= static_cast<PacketId>(packets); ++p) {
    total += xor_layer_hops(fast, h, p, k, 1).size();
  }
  EXPECT_NEAR(static_cast<double>(total) / (packets * k), 1.0 / 16.0, 0.005);
}

class FastDecodeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FastDecodeTest, PeelingDecodesWithFastScheme) {
  const unsigned k = GetParam();
  const SchemeConfig fast = make_fast(make_multilayer_scheme(k));
  GlobalHash root(4000 + k);
  const InstanceHashes h = make_instance_hashes(root, 0);
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) blocks[i] = mix64(k * 1000 + i);
  PeelingDecoder dec(k, fast, h);
  PacketId p = 1;
  while (!dec.complete() && p < 100000) {
    dec.add_packet(p, encode_path(fast, h, p, blocks, 0));
    ++p;
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.message(), blocks);
}

INSTANTIATE_TEST_SUITE_P(Ks, FastDecodeTest,
                         ::testing::Values(5u, 25u, 59u, 128u));

TEST(FastPath, HashedDecoderWorksWithFastScheme) {
  const unsigned k = 12;
  std::vector<std::uint64_t> universe(128);
  std::iota(universe.begin(), universe.end(), 500);
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) blocks[i] = universe[(i * 11) % 128];
  HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = 8;
  cfg.instances = 1;
  cfg.scheme = make_fast(make_multilayer_scheme(k));
  GlobalHash root(8080);
  HashedPathDecoder dec(cfg, root, universe);
  PacketId p = 1;
  while (!dec.complete() && p < 200000) {
    dec.add_packet(p,
                   encode_path_multi(cfg.scheme, root, 1, p, blocks, 8));
    ++p;
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.path(), blocks);
}

}  // namespace
}  // namespace pint
