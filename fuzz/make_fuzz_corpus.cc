// Seed-corpus generator for the fuzz targets in this directory.
//
//   make_fuzz_corpus <output-root>
//
// writes <output-root>/{frame,report,wire,path}/*.bin, one file per seed.
// The seeds are produced by the *real* encoders (FrameWriter, ReportEncoder,
// pack_digests, the path-tracing scheme encoder), so the fuzzers start from
// structurally valid inputs and mutate from there — coverage of the deep
// parse paths from iteration one instead of spending the budget
// rediscovering the magic bytes. The checked-in corpus under fuzz/corpus/
// is this program's output; rerun it after a wire-format or path-scheme
// change and commit the diff.
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "coding/encoder.h"
#include "common/types.h"
#include "fuzz/fuzz_util.h"
#include "pint/frame.h"
#include "pint/report_codec.h"
#include "pint/sink_report.h"
#include "pint/static_aggregation.h"
#include "pint/wire_format.h"

namespace {

using Bytes = std::vector<std::uint8_t>;

bool write_seed(const std::string& dir, const std::string& name,
                const Bytes& bytes) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

void append(Bytes& out, const Bytes& more) {
  out.insert(out.end(), more.begin(), more.end());
}

// --- frame seeds -------------------------------------------------------------

// fuzz_frame_reassembler inputs carry one chunk-steering byte up front.
Bytes with_chunking(std::uint8_t chunk_byte, Bytes stream) {
  stream.insert(stream.begin(), chunk_byte);
  return stream;
}

Bytes encoder_buffer() {
  pint::ReportEncoder enc;
  const pint::SinkContext ctx{/*packet_id=*/42, /*flow=*/7,
                              /*path_length=*/5};
  enc.add(ctx, "latency.p99", pint::AggregateObservation{12.5});
  enc.add(ctx, "hop.sample", pint::HopSampleObservation{3, 0.25});
  enc.add(ctx, "path.digest", pint::PathDigestObservation{11, 4, true});
  enc.add_path(ctx, "path.query", {1, 2, 3, 4, 5});
  return enc.finish();
}

bool emit_frame_seeds(const std::string& dir) {
  bool ok = true;

  // One complete single-source epoch: open, two payloads, close.
  {
    pint::FrameWriter writer(/*source=*/1);
    Bytes stream = writer.make_open();
    append(stream, writer.make_payload(encoder_buffer()));
    append(stream, writer.make_payload(Bytes{0xDE, 0xAD, 0xBE, 0xEF}));
    append(stream, writer.make_close());
    ok &= write_seed(dir, "epoch_single_source.bin",
                     with_chunking(0, stream));
    // Same stream fed in tiny chunks (steering byte 0 => chunk size 1).
    ok &= write_seed(dir, "epoch_byte_at_a_time.bin",
                     with_chunking(0, stream));

    // Bit flip in the payload region: the CRC must catch it.
    Bytes flipped = stream;
    flipped[flipped.size() / 2] ^= 0x40;
    ok &= write_seed(dir, "epoch_bit_flip.bin", with_chunking(7, flipped));

    // Truncated mid-frame: finish() must surface kTruncatedStream.
    Bytes truncated(stream.begin(),
                    stream.begin() +
                        static_cast<std::ptrdiff_t>(stream.size() - 9));
    ok &= write_seed(dir, "epoch_truncated.bin", with_chunking(13, truncated));

    // Garbage prefix before a valid frame: resync-on-magic path.
    Bytes garbage{'n', 'o', 't', ' ', 'a', ' ', 'f', 'r', 'a', 'm', 'e'};
    append(garbage, stream);
    ok &= write_seed(dir, "garbage_then_valid.bin",
                     with_chunking(31, garbage));
  }

  // Two sources interleaved on one stream (the fan-in arrangement), with a
  // deliberate gap: source 2's second payload is dropped.
  {
    pint::FrameWriter a(/*source=*/1);
    pint::FrameWriter b(/*source=*/2);
    Bytes stream = a.make_open();
    append(stream, b.make_open());
    append(stream, a.make_payload(Bytes{1, 2, 3}));
    append(stream, b.make_payload(encoder_buffer()));
    std::ignore = b.make_payload(Bytes{9, 9, 9});  // consumed seq, not sent
    b.payload_dropped();
    append(stream, a.make_close());
    append(stream, b.make_close());
    ok &= write_seed(dir, "two_sources_with_gap.bin",
                     with_chunking(19, stream));
  }
  return ok;
}

// --- report seeds ------------------------------------------------------------

bool emit_report_seeds(const std::string& dir) {
  bool ok = true;
  ok &= write_seed(dir, "mixed_records.bin", encoder_buffer());

  {
    pint::ReportEncoder enc;
    ok &= write_seed(dir, "empty.bin", enc.finish());
  }
  {
    // Many records, several interned names, chunked into small buffers.
    pint::ReportEncoder enc;
    for (std::uint64_t i = 0; i < 40; ++i) {
      const pint::SinkContext ctx{/*packet_id=*/i, /*flow=*/i % 3,
                                  /*path_length=*/4};
      enc.add(ctx, i % 2 == 0 ? "even.query" : "odd.query",
              pint::AggregateObservation{static_cast<double>(i)});
    }
    const auto chunks = enc.finish_chunked(/*max_records=*/16);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      ok &= write_seed(dir, "chunked_" + std::to_string(i) + ".bin",
                       chunks[i]);
    }
  }
  {
    // Long path record plus non-finite doubles (raw IEEE bits on the wire).
    pint::ReportEncoder enc;
    const pint::SinkContext ctx{/*packet_id=*/99, /*flow=*/1,
                                /*path_length=*/32};
    std::vector<pint::SwitchId> path;
    for (pint::SwitchId hop = 0; hop < 32; ++hop) path.push_back(hop * 101);
    enc.add_path(ctx, "long.path", path);
    enc.add(ctx, "inf", pint::AggregateObservation{
                            std::numeric_limits<double>::infinity()});
    ok &= write_seed(dir, "long_path_and_inf.bin", enc.finish());
  }
  return ok;
}

// --- wire seeds --------------------------------------------------------------

// fuzz_wire_format inputs: [count][widths...][payload bytes].
Bytes wire_seed(const std::vector<unsigned>& widths,
                const std::vector<pint::Digest>& lanes) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(widths.size()));
  // The target maps a width byte b to 1 + b % 64; b = w - 1 round-trips.
  for (unsigned w : widths) out.push_back(static_cast<std::uint8_t>(w - 1));
  append(out, pint::pack_digests(lanes, widths));
  return out;
}

bool emit_wire_seeds(const std::string& dir) {
  bool ok = true;
  ok &= write_seed(dir, "single_full_lane.bin",
                   wire_seed({64}, {0x0123456789ABCDEFull}));
  ok &= write_seed(dir, "bit_lanes.bin",
                   wire_seed({1, 1, 1, 1, 1, 1, 1, 1}, {1, 0, 1, 1, 0, 0, 1, 0}));
  ok &= write_seed(
      dir, "mixed_widths.bin",
      wire_seed({3, 13, 64, 7, 1}, {5, 4095, ~pint::Digest{0}, 99, 1}));
  ok &= write_seed(dir, "no_lanes.bin", wire_seed({}, {}));
  ok &= write_seed(dir, "unaligned_total.bin",
                   wire_seed({5, 6, 7}, {17, 33, 100}));
  return ok;
}

// --- path seeds --------------------------------------------------------------

// fuzz_path_decoder inputs: 7 parameter bytes, then [id:4][lane:8 x inst]
// records. `paths` digests come from the real scheme encoder over the
// target's universe, so the standalone decoder resolves hops from the
// first iteration; `corrupt` XORs 0x5A into lane 0 of that packet index.
struct PathSeed {
  unsigned k;
  std::size_t universe_size;
  unsigned bits;
  unsigned instances;
  pint::SchemeVariant variant;
  unsigned d;
  bool fast;
  std::uint8_t seed;
  unsigned packets;
  std::size_t corrupt = ~std::size_t{0};
  bool off_universe = false;  // one hop's switch is not in the universe
};

Bytes path_seed(const PathSeed& s) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(s.k - 1));
  out.push_back(static_cast<std::uint8_t>((s.universe_size - 1) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((s.universe_size - 1) >> 8));
  out.push_back(static_cast<std::uint8_t>(s.bits - 1));
  out.push_back(static_cast<std::uint8_t>(s.instances - 1));
  out.push_back(static_cast<std::uint8_t>(
      static_cast<unsigned>(s.variant) | ((s.d - 1) << 3) |
      (s.fast ? 0x80 : 0)));
  out.push_back(s.seed);

  const std::vector<std::uint64_t> universe =
      pint_fuzz::path_universe(s.seed, s.universe_size);
  std::vector<std::uint64_t> blocks(s.k);
  for (unsigned i = 0; i < s.k; ++i) {
    blocks[i] = universe[(i * 7) % universe.size()];
  }
  if (s.off_universe) blocks[s.k / 2] = ~universe[0];
  pint::SchemeConfig scheme = pint::make_scheme(s.variant, s.d);
  if (s.fast) scheme = pint::make_fast(scheme);
  const pint::GlobalHash root(s.seed);
  for (unsigned n = 0; n < s.packets; ++n) {
    const pint::PacketId id = 1 + n;
    std::vector<pint::Digest> lanes = pint::encode_path_multi(
        scheme, root, s.instances, id, blocks, s.bits);
    if (n == s.corrupt) lanes[0] ^= 0x5A;
    for (unsigned b = 0; b < 4; ++b) {
      out.push_back(static_cast<std::uint8_t>(id >> (8 * b)));
    }
    for (pint::Digest lane : lanes) {
      for (unsigned b = 0; b < 8; ++b) {
        out.push_back(static_cast<std::uint8_t>(lane >> (8 * b)));
      }
    }
  }
  return out;
}

bool emit_path_seeds(const std::string& dir) {
  using pint::SchemeVariant;
  bool ok = true;
  // Section 6.4 fat-tree shape: 5 hops, 80 switches, one 8-bit lane.
  const PathSeed fat_tree{5, 80, 8, 1, SchemeVariant::kMultiLayer, 5,
                          false, 1, 40};
  ok &= write_seed(dir, "fat_tree_decodes.bin", path_seed(fat_tree));
  PathSeed corrupted = fat_tree;
  corrupted.corrupt = 6;
  ok &= write_seed(dir, "fat_tree_corrupted_lane.bin", path_seed(corrupted));
  PathSeed off_universe = fat_tree;
  off_universe.off_universe = true;
  ok &= write_seed(dir, "off_universe_hop.bin", path_seed(off_universe));
  // ISP-length path, two 4-bit instances on the bit-vector fast path.
  ok &= write_seed(dir, "isp_two_instances_fast.bin",
                   path_seed({16, 158, 4, 2, SchemeVariant::kMultiLayerRevised,
                              10, true, 2, 240}));
  ok &= write_seed(dir, "xor_wide_digest.bin",
                   path_seed({9, 300, 16, 1, SchemeVariant::kXor, 9, false, 3,
                              30}));
  ok &= write_seed(dir, "single_switch_universe.bin",
                   path_seed({3, 1, 2, 1, SchemeVariant::kBaseline, 1, false,
                              4, 4}));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  bool ok = true;
  for (const char* sub : {"", "/frame", "/report", "/wire", "/path"}) {
    const std::string dir = root + sub;
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot mkdir %s\n", dir.c_str());
      return 1;
    }
  }
  ok &= emit_frame_seeds(root + "/frame");
  ok &= emit_report_seeds(root + "/report");
  ok &= emit_wire_seeds(root + "/wire");
  ok &= emit_path_seeds(root + "/path");
  if (!ok) return 1;
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
