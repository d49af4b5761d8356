#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "coding/encoder.h"
#include "coding/fragmentation.h"
#include "coding/hashed_decoder.h"
#include "coding/lnc.h"
#include "coding/peeling_decoder.h"
#include "coding/scheme.h"
#include "common/rng.h"
#include "pint/static_aggregation.h"

namespace pint {
namespace {

std::vector<std::uint64_t> make_blocks(unsigned k, std::uint64_t tag) {
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) blocks[i] = mix64(tag * 1000 + i);
  return blocks;
}

TEST(Scheme, ETower) {
  EXPECT_DOUBLE_EQ(e_tower(0), 1.0);
  EXPECT_NEAR(e_tower(1), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e_tower(2), std::exp(std::exp(1.0)), 1e-9);
}

TEST(Scheme, LogStar) {
  // log*_e counts ln applications until the value drops to <= 1.
  EXPECT_EQ(log_star(1.0), 0u);
  EXPECT_EQ(log_star(2.0), 1u);   // ln 2 = 0.69
  EXPECT_EQ(log_star(15.0), 2u);  // 15 -> 2.7 -> 0.996
  EXPECT_EQ(log_star(3.8e6), 3u); // -> 15.1 -> 2.7 -> 0.996
  EXPECT_EQ(log_star(25.0), 3u);  // 25 -> 3.2 -> 1.17 -> 0.16
}

TEST(Scheme, MultiLayerLayerCount) {
  // Paper: L = 1 for d <= 15, L = 2 for 16 <= d <= e^e^e.
  EXPECT_EQ(make_multilayer_scheme(5).num_layers(), 1u);
  EXPECT_EQ(make_multilayer_scheme(15).num_layers(), 1u);
  EXPECT_EQ(make_multilayer_scheme(16).num_layers(), 2u);
  EXPECT_EQ(make_multilayer_scheme(59).num_layers(), 2u);
  EXPECT_EQ(make_multilayer_scheme(1000).num_layers(), 2u);
}

TEST(Scheme, LayerProbsAreETowerOverD) {
  const auto cfg = make_multilayer_scheme(25);
  ASSERT_EQ(cfg.layer_probs.size(), 2u);
  EXPECT_NEAR(cfg.layer_probs[0], 1.0 / 25.0, 1e-12);
  EXPECT_NEAR(cfg.layer_probs[1], std::exp(1.0) / 25.0, 1e-12);
}

TEST(Scheme, LayerSelectionMatchesDistribution) {
  const auto cfg = make_multilayer_scheme(25);
  GlobalHash h(7);
  const int n = 200000;
  std::vector<int> counts(cfg.num_layers() + 1, 0);
  for (PacketId p = 0; p < static_cast<PacketId>(n); ++p) {
    ++counts[select_layer(cfg, h, p)];
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, cfg.tau, 0.01);
  const double per_layer = (1.0 - cfg.tau) / cfg.num_layers();
  for (std::size_t l = 1; l < counts.size(); ++l) {
    EXPECT_NEAR(static_cast<double>(counts[l]) / n, per_layer, 0.01);
  }
}

TEST(Scheme, BaselineCarrierIsUniform) {
  // The reservoir process must land on each hop with probability 1/k.
  GlobalHash g(11);
  const unsigned k = 12;
  std::vector<int> counts(k, 0);
  const int n = 120000;
  for (PacketId p = 0; p < static_cast<PacketId>(n); ++p) {
    ++counts[baseline_carrier(g, p, k) - 1];
  }
  for (unsigned i = 0; i < k; ++i) {
    EXPECT_NEAR(counts[i], n / k, n / k * 0.1) << "hop " << i + 1;
  }
}

TEST(Scheme, XorParticipationMatchesP) {
  GlobalHash g(13);
  const unsigned k = 40;
  const double p = 0.1;
  std::uint64_t total = 0;
  const int n = 20000;
  for (PacketId pk = 0; pk < static_cast<PacketId>(n); ++pk) {
    total += xor_participants(g, pk, k, p).size();
  }
  EXPECT_NEAR(static_cast<double>(total) / (n * k), p, 0.01);
}

// --- full-block peeling decoder over all scheme variants -------------------

struct VariantCase {
  const char* name;
  SchemeConfig (*make)(unsigned);
  unsigned k;
};

class PeelingVariantTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(PeelingVariantTest, DecodesFullMessage) {
  const auto [variant, k] = GetParam();
  SchemeConfig cfg;
  switch (variant) {
    case 0: cfg = make_baseline_scheme(); break;
    case 1: cfg = make_xor_scheme(k); break;
    case 2: cfg = make_hybrid_scheme(k); break;
    case 3: cfg = make_multilayer_scheme(k); break;
    default: FAIL();
  }
  GlobalHash root(1234 + variant * 100 + k);
  const InstanceHashes hashes = make_instance_hashes(root, 0);
  const auto blocks = make_blocks(k, 7);
  PeelingDecoder dec(k, cfg, hashes);
  PacketId p = 1;
  const PacketId limit = 200000;
  while (!dec.complete() && p < limit) {
    const Digest d = encode_path(cfg, hashes, p, blocks, /*bits=*/0);
    dec.add_packet(p, d);
    ++p;
  }
  ASSERT_TRUE(dec.complete()) << "variant " << variant << " k " << k;
  EXPECT_EQ(dec.message(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndK, PeelingVariantTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u, 5u, 25u, 59u)));

TEST(Peeling, HybridBeatsBaselineAtK25) {
  // Fig. 5 headline: interleaving converges with fewer packets than pure
  // Baseline. Compare median packets-to-decode over repetitions.
  const unsigned k = 25;
  auto median_packets = [&](const SchemeConfig& cfg, std::uint64_t seed_base) {
    std::vector<std::uint64_t> needed;
    for (int rep = 0; rep < 40; ++rep) {
      GlobalHash root(seed_base + rep);
      const InstanceHashes h = make_instance_hashes(root, 0);
      const auto blocks = make_blocks(k, rep);
      PeelingDecoder dec(k, cfg, h);
      PacketId p = 1;
      while (!dec.complete()) {
        dec.add_packet(p, encode_path(cfg, h, p, blocks, 0));
        ++p;
      }
      needed.push_back(p - 1);
    }
    std::sort(needed.begin(), needed.end());
    return needed[needed.size() / 2];
  };
  const auto baseline = median_packets(make_baseline_scheme(), 10000);
  const auto hybrid = median_packets(make_hybrid_scheme(k), 20000);
  // Paper: baseline median ~89, hybrid ~41 at k=25.
  EXPECT_GT(baseline, 60u);
  EXPECT_LT(hybrid, baseline);
}

TEST(Peeling, RejectsZeroHops) {
  GlobalHash root(5);
  EXPECT_THROW(
      PeelingDecoder(0, make_baseline_scheme(), make_instance_hashes(root, 0)),
      std::invalid_argument);
}

TEST(Peeling, MessageBeforeCompleteThrows) {
  GlobalHash root(6);
  PeelingDecoder dec(4, make_baseline_scheme(), make_instance_hashes(root, 0));
  EXPECT_THROW(dec.message(), std::runtime_error);
}

// --- hashed decoder ---------------------------------------------------------

class HashedDecoderTest
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>> {
};

TEST_P(HashedDecoderTest, DecodesPathOverUniverse) {
  const auto [bits, instances, k] = GetParam();
  const unsigned universe_size = 100;
  std::vector<std::uint64_t> universe(universe_size);
  std::iota(universe.begin(), universe.end(), 1000);

  // The true path: an arbitrary distinct selection from the universe.
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) {
    blocks[i] = universe[(i * 13) % universe_size];
  }

  HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = bits;
  cfg.instances = instances;
  cfg.scheme = make_multilayer_scheme(k);

  GlobalHash root(777 + bits * 10 + instances + k);
  HashedPathDecoder dec(cfg, root, universe);
  PacketId p = 1;
  const PacketId limit = 500000;
  while (!dec.complete() && p < limit) {
    const auto lanes =
        encode_path_multi(cfg.scheme, root, instances, p, blocks, bits);
    dec.add_packet(p, lanes);
    ++p;
  }
  ASSERT_TRUE(dec.complete())
      << "bits=" << bits << " inst=" << instances << " k=" << k;
  EXPECT_EQ(dec.path(), blocks);
}

INSTANTIATE_TEST_SUITE_P(
    BitsInstancesK, HashedDecoderTest,
    ::testing::Combine(::testing::Values(1u, 4u, 8u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(3u, 10u, 25u)));

TEST(HashedDecoder, PartialKnowledgeExposed) {
  const unsigned k = 10;
  std::vector<std::uint64_t> universe(50);
  std::iota(universe.begin(), universe.end(), 1);
  HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = 8;
  cfg.instances = 1;
  cfg.scheme = make_multilayer_scheme(k);
  GlobalHash root(3131);
  HashedPathDecoder dec(cfg, root, universe);
  EXPECT_EQ(dec.resolved_count(), 0u);
  EXPECT_FALSE(dec.value_at(1).has_value());
  EXPECT_THROW(dec.path(), std::runtime_error);
}

TEST(HashedDecoder, TwoInstancesBeatOneAtSameBudget) {
  // Section 4.2 "Improving Performance via Multiple Instantiations":
  // 2 x (b=8) should decode with fewer packets than 1 x (b=16).
  const unsigned k = 25;
  std::vector<std::uint64_t> universe(200);
  std::iota(universe.begin(), universe.end(), 5000);
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) blocks[i] = universe[(i * 7) % 200];

  auto avg_packets = [&](unsigned bits, unsigned instances) {
    double total = 0.0;
    const int reps = 15;
    for (int rep = 0; rep < reps; ++rep) {
      HashedDecoderConfig cfg;
      cfg.k = k;
      cfg.bits = bits;
      cfg.instances = instances;
      cfg.scheme = make_multilayer_scheme(k);
      GlobalHash root(91000 + rep * 7 + bits);
      HashedPathDecoder dec(cfg, root, universe);
      PacketId p = 1;
      while (!dec.complete()) {
        dec.add_packet(
            p, encode_path_multi(cfg.scheme, root, instances, p, blocks, bits));
        ++p;
      }
      total += static_cast<double>(p - 1);
    }
    return total / reps;
  };
  EXPECT_LT(avg_packets(8, 2), avg_packets(16, 1) * 1.05);
}

// --- hashed decoder vs an eager reference -----------------------------------

// Eager reference decoder: every hop starts with a full copy of the
// universe and is narrowed in place. The differential oracle for
// HashedPathDecoder, whose candidate sets are built lazily.
class EagerReferenceDecoder {
 public:
  EagerReferenceDecoder(HashedDecoderConfig cfg, const GlobalHash& root,
                        const std::vector<std::uint64_t>& universe)
      : cfg_(cfg), candidates_(cfg.k, universe) {
    for (unsigned inst = 0; inst < cfg.instances; ++inst) {
      hashes_.push_back(make_instance_hashes(root, inst));
    }
    if (universe.size() == 1) resolved_ = cfg.k;
  }

  unsigned add_packet(PacketId packet, std::span<const Digest> digests) {
    unsigned newly = 0;
    for (unsigned inst = 0; inst < cfg_.instances; ++inst) {
      const InstanceHashes& h = hashes_[inst];
      const unsigned layer = select_layer(cfg_.scheme, h.layer, packet);
      if (layer == 0) {
        newly += filter_hop(baseline_carrier(h.g, packet, cfg_.k), inst,
                            packet, digests[inst]);
        continue;
      }
      Record rec{packet, inst, digests[inst], {}};
      for (HopIndex i : xor_layer_hops(cfg_.scheme, h, packet, cfg_.k,
                                       layer)) {
        if (candidates_[i - 1].size() == 1) {
          rec.residual ^=
              h.value.digest2(candidates_[i - 1][0], packet, cfg_.bits);
        } else {
          rec.unknown.push_back(i);
        }
      }
      if (rec.unknown.empty()) continue;
      if (rec.unknown.size() == 1) {
        newly += filter_hop(rec.unknown[0], inst, packet, rec.residual);
        continue;
      }
      records_.push_back(std::move(rec));
      for (HopIndex i : records_.back().unknown) {
        hop_to_records_[i].push_back(records_.size() - 1);
      }
    }
    return newly;
  }

  unsigned resolved_count() const { return resolved_; }
  bool complete() const { return resolved_ == cfg_.k; }
  std::optional<std::uint64_t> value_at(HopIndex hop) const {
    const auto& cands = candidates_[hop - 1];
    if (cands.size() == 1) return cands[0];
    return std::nullopt;
  }
  std::vector<std::uint64_t> path() const {
    std::vector<std::uint64_t> out;
    for (const auto& cands : candidates_) out.push_back(cands[0]);
    return out;
  }

 private:
  struct Record {
    PacketId packet;
    unsigned instance;
    Digest residual;
    std::vector<HopIndex> unknown;
  };

  unsigned filter_hop(HopIndex hop, unsigned inst, PacketId packet,
                      Digest digest) {
    auto& cands = candidates_[hop - 1];
    if (cands.size() == 1) return 0;
    std::erase_if(cands, [&](std::uint64_t v) {
      return hashes_[inst].value.digest2(v, packet, cfg_.bits) != digest;
    });
    if (cands.empty()) throw std::runtime_error("no candidate survives");
    return cands.size() == 1 ? on_resolved(hop) : 0;
  }

  unsigned on_resolved(HopIndex hop) {
    unsigned newly = 1;
    ++resolved_;
    const std::uint64_t value = candidates_[hop - 1][0];
    auto it = hop_to_records_.find(hop);
    if (it == hop_to_records_.end()) return newly;
    const std::vector<std::size_t> affected = it->second;
    hop_to_records_.erase(it);
    for (std::size_t idx : affected) {
      Record& rec = records_[idx];
      auto pos = std::find(rec.unknown.begin(), rec.unknown.end(), hop);
      if (pos == rec.unknown.end()) continue;
      rec.unknown.erase(pos);
      rec.residual ^=
          hashes_[rec.instance].value.digest2(value, rec.packet, cfg_.bits);
      if (rec.unknown.size() == 1) {
        newly += filter_hop(rec.unknown[0], rec.instance, rec.packet,
                            rec.residual);
      }
    }
    return newly;
  }

  HashedDecoderConfig cfg_;
  std::vector<InstanceHashes> hashes_;
  std::vector<std::vector<std::uint64_t>> candidates_;
  unsigned resolved_ = 0;
  std::vector<Record> records_;
  std::unordered_map<HopIndex, std::vector<std::size_t>> hop_to_records_;
};

// What a caller can observe of a decoder.
struct DecoderView {
  unsigned resolved = 0;
  std::vector<std::optional<std::uint64_t>> values;
  std::optional<std::vector<std::uint64_t>> path;

  template <typename Decoder>
  static DecoderView of(const Decoder& d, unsigned k) {
    DecoderView v;
    v.resolved = d.resolved_count();
    for (HopIndex i = 1; i <= k; ++i) v.values.push_back(d.value_at(i));
    if (d.complete()) v.path = d.path();
    return v;
  }
  bool operator==(const DecoderView&) const = default;
};

TEST(HashedDecoder, LazyDecoderMatchesEagerReference) {
  // Differential: the lazy decoder must return, resolve, expose and throw
  // exactly like the eager reference, packet by packet, across universe
  // sizes, path lengths, digest widths, instance counts and every scheme
  // variant (exact and bit-vector fast path). Some packets get a corrupted
  // lane (and some paths leave the universe) so the "no candidate
  // survives" path is exercised: after a throw the lazy decoder must be
  // exactly as before the packet, and it must keep agreeing with a
  // reference rebuilt from the packets it accepted.
  const std::vector<std::size_t> universe_sizes = {1, 2, 80, 158, 1000};
  const std::vector<unsigned> ks = {1, 2, 3, 5, 9, 16, 25, 40};
  const std::vector<unsigned> bit_widths = {1, 2, 3, 5, 8, 12, 16};
  const std::vector<SchemeVariant> variants = {
      SchemeVariant::kBaseline, SchemeVariant::kXor, SchemeVariant::kHybrid,
      SchemeVariant::kMultiLayer, SchemeVariant::kMultiLayerRevised};
  Rng rng(20240515);
  std::uint64_t throws = 0;
  std::uint64_t completions = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t usize = universe_sizes[rng.uniform_int(
        static_cast<std::uint64_t>(universe_sizes.size()))];
    const unsigned k = ks[rng.uniform_int(ks.size())];
    const unsigned bits = bit_widths[rng.uniform_int(bit_widths.size())];
    const unsigned instances = 1 + static_cast<unsigned>(rng.uniform_int(2));
    const SchemeVariant variant = variants[trial % variants.size()];
    const bool fast = (trial / variants.size()) % 2 == 1;
    HashedDecoderConfig cfg;
    cfg.k = k;
    cfg.bits = bits;
    cfg.instances = instances;
    cfg.scheme = make_scheme(variant, std::max(k, 2u));
    if (fast) cfg.scheme = make_fast(cfg.scheme);
    std::vector<std::uint64_t> universe(usize);
    for (std::uint64_t& v : universe) v = rng.next();
    std::vector<std::uint64_t> blocks(k);
    for (std::uint64_t& b : blocks) b = universe[rng.uniform_int(usize)];
    // One trial in eight routes a hop through a switch outside the universe.
    if (rng.uniform_int(8) == 0) blocks[rng.uniform_int(k)] = rng.next();
    const GlobalHash root(rng.next());
    const std::string where = "trial " + std::to_string(trial) + " |U|=" +
                              std::to_string(usize) + " k=" +
                              std::to_string(k) + " bits=" +
                              std::to_string(bits) + " inst=" +
                              std::to_string(instances);

    HashedPathDecoder lazy(cfg, root, universe);
    auto eager = std::make_unique<EagerReferenceDecoder>(cfg, root, universe);
    std::vector<std::pair<PacketId, std::vector<Digest>>> accepted;
    const unsigned packets = 60 + 12 * k;
    for (PacketId p = 1; p <= packets && !lazy.complete(); ++p) {
      std::vector<Digest> lanes =
          encode_path_multi(cfg.scheme, root, instances, p, blocks, bits);
      if (rng.uniform_int(25) == 0) {
        lanes[rng.uniform_int(instances)] ^=
            1 + rng.uniform_int(low_bits_mask(bits));
      }
      const DecoderView before = DecoderView::of(lazy, k);
      std::optional<unsigned> eager_newly;
      try {
        eager_newly = eager->add_packet(p, lanes);
      } catch (const std::runtime_error&) {
      }
      std::optional<unsigned> lazy_newly;
      try {
        lazy_newly = lazy.add_packet(p, lanes);
      } catch (const std::runtime_error&) {
      }
      ASSERT_EQ(eager_newly.has_value(), lazy_newly.has_value())
          << where << " packet " << p;
      if (!lazy_newly.has_value()) {
        ++throws;
        ASSERT_EQ(DecoderView::of(lazy, k), before) << where << " packet "
                                                    << p;
        ASSERT_EQ(lazy.packets_consumed(), accepted.size()) << where;
        // The reference is left half-filtered by its throw; rebuild it
        // from the packets the lazy decoder accepted.
        eager = std::make_unique<EagerReferenceDecoder>(cfg, root, universe);
        for (const auto& [q, q_lanes] : accepted) eager->add_packet(q, q_lanes);
        continue;
      }
      accepted.emplace_back(p, lanes);
      ASSERT_EQ(*eager_newly, *lazy_newly) << where << " packet " << p;
      ASSERT_EQ(DecoderView::of(*eager, k), DecoderView::of(lazy, k))
          << where << " packet " << p;
    }
    if (lazy.complete()) ++completions;
  }
  // The sweep must reach both outcomes it claims to compare.
  EXPECT_GT(throws, 20u);
  EXPECT_GT(completions, 60u);
}

TEST(HashedDecoder, FreshFootprintIndependentOfUniverse) {
  // Candidate sets are built on first observation and the universe is
  // shared, so a fresh decoder costs the same over 2 or 100k switch IDs.
  HashedDecoderConfig cfg;
  cfg.k = 12;
  cfg.scheme = make_multilayer_scheme(12);
  const GlobalHash root(99);
  const auto fresh_bytes = [&](std::size_t usize) {
    std::vector<std::uint64_t> universe(usize);
    std::iota(universe.begin(), universe.end(), 1);
    return HashedPathDecoder(cfg, root, std::move(universe)).approx_bytes();
  };
  const std::size_t small = fresh_bytes(2);
  EXPECT_EQ(fresh_bytes(158), small);
  EXPECT_EQ(fresh_bytes(100000), small);
  EXPECT_LT(small, 1024u);
}

TEST(HashedDecoder, FootprintShrinksAsHopsResolve) {
  const unsigned k = 8;
  HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = 4;  // ~|U|/16 survivors after a hop's first observation
  cfg.scheme = make_baseline_scheme();
  std::vector<std::uint64_t> universe(512);
  std::iota(universe.begin(), universe.end(), 1);
  const std::vector<std::uint64_t> blocks = {3, 40, 77, 120, 200, 301, 402,
                                             499};
  const GlobalHash root(4242);
  HashedPathDecoder dec(cfg, root, universe);
  const std::size_t fresh = dec.approx_bytes();
  std::size_t peak = fresh;
  PacketId p = 1;
  while (!dec.complete()) {
    dec.add_packet(p, encode_path_multi(cfg.scheme, root, 1, p, blocks, 4));
    peak = std::max(peak, dec.approx_bytes());
    ++p;
  }
  EXPECT_EQ(dec.path(), blocks);
  EXPECT_GT(peak, fresh);  // first observations materialize survivors
  // Resolved hops keep one candidate each: far below the peak.
  EXPECT_LT(dec.approx_bytes(), peak);
  EXPECT_LE(dec.approx_bytes(), fresh + k * sizeof(std::uint64_t));
}

TEST(HashedDecoder, SharedUniverseIsNotCopied) {
  const auto universe = std::make_shared<const std::vector<std::uint64_t>>(
      std::vector<std::uint64_t>{10, 20, 30, 40});
  HashedDecoderConfig cfg;
  cfg.k = 3;
  cfg.scheme = make_multilayer_scheme(3);
  const GlobalHash root(5);
  HashedPathDecoder a(cfg, root, universe);
  HashedPathDecoder b(cfg, root, universe);
  EXPECT_EQ(universe.use_count(), 3);
  EXPECT_EQ(a.approx_bytes(), b.approx_bytes());
}

// --- fragmentation -----------------------------------------------------------

class FragmentationTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(FragmentationTest, ReassemblesWideValues) {
  const auto [q, b] = GetParam();
  const unsigned k = 6;
  std::vector<std::uint64_t> values(k);
  Rng rng(q * 100 + b);
  for (auto& v : values) v = rng.next() & low_bits_mask(q);

  GlobalHash root(4242 + q + b);
  FragmentedCodec codec(k, q, b, make_hybrid_scheme(k), root);
  EXPECT_EQ(codec.num_fragments(), (q + b - 1) / b);

  PacketId p = 1;
  const PacketId limit = 300000;
  while (!codec.complete() && p < limit) {
    Digest d = 0;
    for (HopIndex i = 1; i <= k; ++i) {
      d = codec.encode_step(p, i, d, values[i - 1]);
    }
    codec.add_packet(p, d);
    ++p;
  }
  ASSERT_TRUE(codec.complete()) << "q=" << q << " b=" << b;
  EXPECT_EQ(codec.message(), values);
}

INSTANTIATE_TEST_SUITE_P(QB, FragmentationTest,
                         ::testing::Values(std::make_tuple(32u, 8u),
                                           std::make_tuple(32u, 16u),
                                           std::make_tuple(16u, 4u),
                                           std::make_tuple(10u, 3u)));

// --- linear network coding ---------------------------------------------------

TEST(Lnc, DecodesNearK) {
  // Paper: LNC needs ~ k + log2(k) packets.
  const unsigned k = 32;
  const auto blocks = make_blocks(k, 3);
  double total = 0.0;
  const int reps = 25;
  for (int rep = 0; rep < reps; ++rep) {
    GlobalHash root(606 + rep);
    LncEncoder enc(root);
    LncDecoder dec(k, root);
    PacketId p = 1;
    while (!dec.complete()) {
      dec.add_packet(p, enc.encode(p, blocks));
      ++p;
    }
    EXPECT_EQ(dec.message(), blocks);
    total += static_cast<double>(p - 1);
  }
  const double avg = total / reps;
  EXPECT_GE(avg, k);
  EXPECT_LE(avg, k + 15);  // k + log2(k) ~ 37 plus slack
}

TEST(Lnc, RankMonotonicAndBounded) {
  const unsigned k = 16;
  const auto blocks = make_blocks(k, 9);
  GlobalHash root(17);
  LncEncoder enc(root);
  LncDecoder dec(k, root);
  unsigned prev = 0;
  for (PacketId p = 1; p <= 100; ++p) {
    dec.add_packet(p, enc.encode(p, blocks));
    EXPECT_GE(dec.rank(), prev);
    EXPECT_LE(dec.rank(), k);
    prev = dec.rank();
  }
  EXPECT_TRUE(dec.complete());
}

TEST(Lnc, MessageBeforeCompleteThrows) {
  GlobalHash root(18);
  LncDecoder dec(8, root);
  EXPECT_THROW(dec.message(), std::runtime_error);
}

}  // namespace
}  // namespace pint
