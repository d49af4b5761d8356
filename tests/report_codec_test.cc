// Report codec: the sink -> Inference-Module wire format must round-trip
// every observer event byte-exactly (doubles travel as IEEE-754 bits) and
// reject malformed buffers instead of throwing or misparsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "pint/report_codec.h"

namespace pint {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Exact record equality, NaN-safe.
void expect_equal(const StreamRecord& got, const StreamRecord& want) {
  EXPECT_EQ(got.ctx.packet_id, want.ctx.packet_id);
  EXPECT_EQ(got.ctx.flow, want.ctx.flow);
  EXPECT_EQ(got.ctx.path_length, want.ctx.path_length);
  EXPECT_EQ(got.query, want.query);
  ASSERT_EQ(got.path_event, want.path_event);
  if (want.path_event) {
    EXPECT_EQ(got.path, want.path);
    return;
  }
  ASSERT_EQ(got.observation.index(), want.observation.index());
  if (const auto* agg = std::get_if<AggregateObservation>(&want.observation)) {
    EXPECT_TRUE(same_bits(
        std::get<AggregateObservation>(got.observation).value, agg->value));
  } else if (const auto* hs =
                 std::get_if<HopSampleObservation>(&want.observation)) {
    const auto& g = std::get<HopSampleObservation>(got.observation);
    EXPECT_EQ(g.hop, hs->hop);
    EXPECT_TRUE(same_bits(g.value, hs->value));
  } else {
    const auto& pd = std::get<PathDigestObservation>(want.observation);
    EXPECT_EQ(std::get<PathDigestObservation>(got.observation), pd);
  }
}

double awkward_double(Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return -std::numeric_limits<double>::infinity();
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    case 5:
      return std::numeric_limits<double>::denorm_min();
    case 6:
      return -1e308;
    default:
      return rng.uniform(-1e9, 1e9);
  }
}

std::vector<StreamRecord> random_records(Rng& rng, std::size_t count) {
  static const std::string kNames[] = {"path", "latency", "hpcc",
                                       "a-much-longer-query-name", ""};
  std::vector<StreamRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    StreamRecord rec;
    rec.ctx.packet_id = rng.next();
    rec.ctx.flow = rng.next();
    rec.ctx.path_length = static_cast<unsigned>(rng.uniform_int(64));
    rec.query = kNames[rng.uniform_int(std::size(kNames))];
    switch (rng.uniform_int(4)) {
      case 0:
        rec.observation = AggregateObservation{awkward_double(rng)};
        break;
      case 1:
        rec.observation = HopSampleObservation{
            static_cast<HopIndex>(rng.uniform_int(1u << 20)),
            awkward_double(rng)};
        break;
      case 2:
        rec.observation = PathDigestObservation{
            static_cast<unsigned>(rng.uniform_int(32)),
            static_cast<unsigned>(rng.uniform_int(32)), rng.bernoulli(0.5)};
        break;
      default: {
        rec.path_event = true;
        const std::size_t hops = rng.uniform_int(12);
        for (std::size_t h = 0; h < hops; ++h) {
          rec.path.push_back(static_cast<SwitchId>(rng.next()));
        }
        break;
      }
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<std::uint8_t> encode_all(
    const std::vector<StreamRecord>& records) {
  ReportEncoder enc;
  for (const StreamRecord& rec : records) {
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.observation);
    }
  }
  return enc.finish();
}

TEST(ReportCodec, RandomizedRoundTripIsExact) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<StreamRecord> want =
        random_records(rng, 1 + rng.uniform_int(200));
    const std::vector<std::uint8_t> bytes = encode_all(want);

    ReportDecoder dec;
    std::vector<StreamRecord> got;
    ASSERT_TRUE(dec.decode(bytes, got)) << "trial " << trial;
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_equal(got[i], want[i]);
    }
  }
}

TEST(ReportCodec, EncoderResetsBetweenEpochsAndDecoderInternsNames) {
  SinkContext ctx;
  ctx.packet_id = 7;
  ReportEncoder enc;
  enc.add(ctx, "latency", AggregateObservation{1.0});
  const auto first = enc.finish();
  EXPECT_EQ(enc.records(), 0u);
  enc.add(ctx, "latency", AggregateObservation{2.0});
  enc.add(ctx, "path", AggregateObservation{3.0});
  const auto second = enc.finish();

  ReportDecoder dec;
  std::vector<StreamRecord> records;
  ASSERT_TRUE(dec.decode(first, records));
  ASSERT_TRUE(dec.decode(second, records));
  ASSERT_EQ(records.size(), 3u);
  // Interning: the same name from two buffers is one stable string, so
  // views from different epochs compare equal and point at one storage.
  EXPECT_EQ(records[0].query, records[1].query);
  EXPECT_EQ(records[0].query.data(), records[1].query.data());
}

TEST(ReportCodec, SinkReportEntriesEncodeUnderOnePacketContext) {
  SinkReport report;
  report.add("path", PathDigestObservation{3, 5, false});
  report.add("latency", HopSampleObservation{2, 123.5});
  report.add("hpcc", AggregateObservation{0.75});
  ReportEncoder enc;
  enc.add(/*packet=*/42, /*k=*/5, report);

  ReportDecoder dec;
  std::vector<StreamRecord> records;
  ASSERT_TRUE(dec.decode(enc.finish(), records));
  ASSERT_EQ(records.size(), 3u);
  for (const StreamRecord& rec : records) {
    EXPECT_EQ(rec.ctx.packet_id, 42u);
    EXPECT_EQ(rec.ctx.flow, 0u);  // reports carry no per-query flow keys
    EXPECT_EQ(rec.ctx.path_length, 5u);
  }
  EXPECT_EQ(records[0].query, "path");
  EXPECT_EQ(records[1].query, "latency");
  EXPECT_EQ(records[2].query, "hpcc");
}

TEST(ReportCodec, ChunkedFinishSplitsIntoSelfContainedBuffers) {
  Rng rng(0xC4C4);
  const std::vector<StreamRecord> want = random_records(rng, 157);

  // Whole-buffer reference from an identical record stream.
  ReportEncoder reference;
  for (const StreamRecord& rec : want) {
    if (rec.path_event) {
      reference.add_path(rec.ctx, rec.query, rec.path);
    } else {
      reference.add(rec.ctx, rec.query, rec.observation);
    }
  }
  const std::vector<std::uint8_t> whole = reference.finish();

  ReportEncoder enc;
  for (const StreamRecord& rec : want) {
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.observation);
    }
  }
  const auto chunks = enc.finish_chunked(25);
  ASSERT_EQ(chunks.size(), (want.size() + 24) / 25);
  EXPECT_EQ(enc.records(), 0u);  // reset, like finish()

  // Every chunk decodes on its own — even with a fresh decoder and even
  // out of order — and the concatenated record stream equals the input.
  {
    ReportDecoder isolated;
    std::vector<StreamRecord> alone;
    ASSERT_TRUE(isolated.decode(chunks.back(), alone));
  }
  ReportDecoder dec;
  std::vector<StreamRecord> got;
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(dec.decode(chunk, got));
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_equal(got[i], want[i]);
  }

  // A single chunk covering everything is byte-identical to finish():
  // the chunked path is the same wire format, not a dialect.
  ReportEncoder enc2;
  for (const StreamRecord& rec : want) {
    if (rec.path_event) {
      enc2.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc2.add(rec.ctx, rec.query, rec.observation);
    }
  }
  const auto one = enc2.finish_chunked(want.size());
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], whole);
}

void feed(ReportEncoder& enc, const std::vector<StreamRecord>& records,
          std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const StreamRecord& rec = records[i];
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.observation);
    }
  }
}

// finish_chunked(n) is exactly "finish() per n events": each chunk is
// byte-identical to the buffer a fresh encoder fed only that chunk's
// events would finish — same first-use name table, same record bytes.
TEST(ReportCodec, EachChunkEqualsAFreshEncodersFinishOfItsEvents) {
  Rng rng(0xC4C5);
  const std::vector<StreamRecord> events = random_records(rng, 2500);
  const std::size_t kChunkRecords[] = {1, 3, 1024};
  for (const std::size_t n : kChunkRecords) {
    ReportEncoder enc;
    // A finished first epoch: chunking must not see its leftovers.
    feed(enc, events, 0, 40);
    std::ignore = enc.finish();
    feed(enc, events, 0, events.size());
    const auto chunks = enc.finish_chunked(n);
    ASSERT_EQ(chunks.size(), (events.size() + n - 1) / n) << n;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      ReportEncoder fresh;
      feed(fresh, events, c * n, std::min(events.size(), (c + 1) * n));
      ASSERT_EQ(chunks[c], fresh.finish()) << "n " << n << " chunk " << c;
    }
    // Drained: an empty encoder finishes to magic + zero names + zero
    // records, and chunks into no buffers at all.
    EXPECT_EQ(enc.finish(),
              (std::vector<std::uint8_t>{'P', 'R', 'S', '1', 0, 0}));
    EXPECT_TRUE(enc.finish_chunked(n).empty());
  }
}

TEST(ReportCodec, FuzzedBitFlipsNeverCrashOrEmitOnFailure) {
  Rng rng(0xF1157);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<StreamRecord> want =
        random_records(rng, 1 + rng.uniform_int(60));
    std::vector<std::uint8_t> bytes = encode_all(want);
    // Flip 1-4 random bits anywhere in the buffer.
    const int flips = 1 + static_cast<int>(rng.uniform_int(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.uniform_int(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(8));
    }
    ReportDecoder dec;
    std::vector<StreamRecord> out;
    // The decoder has no checksum (framing adds that); a flip may decode
    // to different-but-well-formed records or be rejected — either is
    // fine. What it must never do: crash, or emit records AND fail.
    const bool ok = dec.decode(bytes, out);
    if (!ok) {
      EXPECT_TRUE(out.empty()) << "trial " << trial;
    }
  }
}

TEST(ReportCodec, FuzzedSplicesNeverCrash) {
  Rng rng(0x5011CE);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> a =
        encode_all(random_records(rng, 1 + rng.uniform_int(40)));
    const std::vector<std::uint8_t> b =
        encode_all(random_records(rng, 1 + rng.uniform_int(40)));
    // Random cross-splices, truncations, and duplications.
    std::vector<std::uint8_t> spliced(
        a.begin(), a.begin() + rng.uniform_int(a.size() + 1));
    spliced.insert(spliced.end(),
                   b.begin() + rng.uniform_int(b.size()), b.end());
    ReportDecoder dec;
    std::vector<StreamRecord> out;
    const bool ok = dec.decode(spliced, out);
    if (!ok) {
      EXPECT_TRUE(out.empty()) << "trial " << trial;
    }
    // Reuse the same decoder afterwards: a rejected buffer must not
    // poison it for good input.
    std::vector<StreamRecord> fresh;
    EXPECT_TRUE(dec.decode(b, fresh)) << "trial " << trial;
  }
}

TEST(ReportCodec, FuzzedGarbageNeverCrashes) {
  Rng rng(0x6A26A6E);
  ReportDecoder dec;
  std::vector<StreamRecord> out;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_int(2048));
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next());
    // Mostly rejected at the magic check; sometimes prefix a real magic
    // so the inner parse paths get exercised too.
    if (rng.bernoulli(0.5) && garbage.size() >= 4) {
      garbage[0] = 'P';
      garbage[1] = 'R';
      garbage[2] = 'S';
      garbage[3] = '1';
    }
    const bool ok = dec.decode(garbage, out);
    if (!ok) {
      EXPECT_TRUE(out.empty()) << "trial " << trial;
    }
    out.clear();
  }
}

TEST(ReportCodec, RejectsMalformedInput) {
  Rng rng(0xBAD);
  const std::vector<StreamRecord> want = random_records(rng, 40);
  const std::vector<std::uint8_t> bytes = encode_all(want);

  ReportDecoder dec;
  std::vector<StreamRecord> out;

  // Empty and bad-magic buffers.
  EXPECT_FALSE(dec.decode({}, out));
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(dec.decode(bad_magic, out));

  // Every strict prefix is truncated somewhere; none may parse.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        dec.decode(std::span<const std::uint8_t>(bytes.data(), len), out))
        << "prefix " << len;
  }

  // Trailing garbage is rejected too (buffers are framed externally).
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(dec.decode(padded, out));

  EXPECT_TRUE(out.empty());  // failures must not emit partial records
  ASSERT_TRUE(dec.decode(bytes, out));  // the pristine buffer still parses
  EXPECT_EQ(out.size(), want.size());
}

// --- zero-copy dispatch -----------------------------------------------------

// Captures dispatch callbacks as owning StreamRecords so they can be
// compared against decode() output with expect_equal.
struct CapturingObserver : SinkObserver {
  std::vector<StreamRecord> records;

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    StreamRecord rec;
    rec.ctx = ctx;
    rec.query = query;
    rec.observation = obs;
    records.push_back(std::move(rec));
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    StreamRecord rec;
    rec.ctx = ctx;
    rec.query = query;
    rec.path_event = true;
    rec.path = path;
    records.push_back(std::move(rec));
  }
};

TEST(ReportCodec, StreamingDispatchMatchesDecodePlusReplay) {
  Rng rng(0x5EED);
  const std::vector<StreamRecord> want = random_records(rng, 300);
  const std::vector<std::uint8_t> bytes = encode_all(want);

  // Reference: materializing decode, then the free-function replay.
  ReportDecoder ref_dec;
  std::vector<StreamRecord> decoded;
  ASSERT_TRUE(ref_dec.decode(bytes, decoded));
  CapturingObserver replayed;
  SinkObserver* replay_list[] = {&replayed};
  dispatch(decoded, replay_list);

  // Zero-copy streaming dispatch straight off the buffer.
  ReportDecoder dec;
  CapturingObserver streamed;
  SinkObserver* stream_list[] = {&streamed};
  std::uint64_t count = 0;
  ASSERT_TRUE(dec.dispatch(bytes, stream_list, &count));
  EXPECT_EQ(count, want.size());
  ASSERT_EQ(streamed.records.size(), replayed.records.size());
  for (std::size_t i = 0; i < streamed.records.size(); ++i) {
    expect_equal(streamed.records[i], replayed.records[i]);
  }
}

TEST(ReportCodec, StreamingDispatchRejectsWithoutCallbacks) {
  Rng rng(0xD15);
  const std::vector<std::uint8_t> bytes =
      encode_all(random_records(rng, 40));
  ReportDecoder dec;
  CapturingObserver obs;
  SinkObserver* observers[] = {&obs};
  // Truncations and corruptions must fire *no* callbacks: dispatch
  // validates the whole buffer before the first one (a half-replayed
  // frame downstream would be indistinguishable from real records).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::uint64_t count = 0;
    EXPECT_FALSE(dec.dispatch(
        std::span<const std::uint8_t>(bytes.data(), len), observers, &count))
        << "prefix " << len;
    EXPECT_EQ(count, 0u);
  }
  EXPECT_TRUE(obs.records.empty());
  // The decoder stays usable after rejection.
  EXPECT_TRUE(dec.dispatch(bytes, observers));
  EXPECT_EQ(obs.records.size(), 40u);
}

TEST(ReportCodec, StreamingDispatchReusesScratchAcrossEpochs) {
  Rng rng(0xEC0);
  ReportDecoder dec;
  CapturingObserver obs;
  SinkObserver* observers[] = {&obs};
  std::vector<StreamRecord> all_want;
  // Many epochs through one decoder: interned name views handed to early
  // callbacks must stay valid (and correct) after later buffers reuse the
  // scratch.
  for (int epoch = 0; epoch < 20; ++epoch) {
    const std::vector<StreamRecord> want = random_records(rng, 50);
    const std::vector<std::uint8_t> bytes = encode_all(want);
    ASSERT_TRUE(dec.dispatch(bytes, observers));
    for (const StreamRecord& rec : want) all_want.push_back(rec);
  }
  ASSERT_EQ(obs.records.size(), all_want.size());
  for (std::size_t i = 0; i < all_want.size(); ++i) {
    expect_equal(obs.records[i], all_want[i]);
  }
}

}  // namespace
}  // namespace pint
