// Fuzz target: hashed path decoding of untrusted digests
// (coding/hashed_decoder.h, and the framework's sink path around it).
//
// Path digests arrive from the network: a corrupted or forged lane must cost
// at most that flow's decoder, never the sink. This target derives a path
// length, a switch universe, a digest width, an instance count, a scheme
// variant and a packet stream from the fuzz input, then checks:
//
//  * a standalone HashedPathDecoder throws nothing but the documented
//    std::runtime_error ("no candidate survives"), and after such a throw
//    it is exactly as it was before the packet;
//  * its observable state stays coherent: resolved_count() counts the hops
//    value_at() knows, every known value is in the universe, and a complete
//    decoder's path() is those values;
//  * a memory-bounded PintFramework fed the same packets never throws from
//    at_sink, counts every decoder it drops in decode_conflicts, and keeps
//    its store within the ceiling plus one entry.
//
// Input layout: 7 parameter bytes (k, universe size lo/hi, bits, instances,
// scheme, seed), then packet records of [4-byte id][8 bytes per lane], all
// little-endian. The scheme byte packs the variant (bits 0-2, mod 5), the
// typical path length d (bits 3-6, plus one) and the bit-vector fast path
// (bit 7).
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coding/hashed_decoder.h"
#include "common/types.h"
#include "fuzz/fuzz_util.h"
#include "pint/framework.h"
#include "pint/static_aggregation.h"

namespace {

std::uint64_t read_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

struct Snapshot {
  unsigned resolved = 0;
  std::uint64_t packets = 0;
  std::vector<std::optional<std::uint64_t>> values;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const pint::HashedPathDecoder& d) {
  Snapshot s;
  s.resolved = d.resolved_count();
  s.packets = d.packets_consumed();
  for (pint::HopIndex i = 1; i <= d.k(); ++i) {
    s.values.push_back(d.value_at(i));
  }
  return s;
}

void check_coherent(const pint::HashedPathDecoder& d,
                    const std::vector<std::uint64_t>& universe) {
  unsigned known = 0;
  for (pint::HopIndex i = 1; i <= d.k(); ++i) {
    const auto v = d.value_at(i);
    if (!v.has_value()) continue;
    ++known;
    bool in_universe = false;
    for (std::uint64_t u : universe) in_universe = in_universe || u == *v;
    FUZZ_CHECK(in_universe);
  }
  FUZZ_CHECK(known == d.resolved_count());
  if (d.complete()) {
    const std::vector<std::uint64_t> path = d.path();
    FUZZ_CHECK(path.size() == d.k());
    for (pint::HopIndex i = 1; i <= d.k(); ++i) {
      FUZZ_CHECK(path[i - 1] == *d.value_at(i));
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  pint_fuzz::ParamReader params(data, size);
  const unsigned k = 1 + params.byte() % 64;
  const std::size_t universe_size =
      1 + (params.byte() | (std::size_t{params.byte()} << 8)) % 1024;
  const unsigned bits = 1 + params.byte() % 64;
  const unsigned instances = 1 + params.byte() % 3;
  const std::uint8_t scheme_byte = params.byte();
  const std::uint64_t seed = params.byte();

  const std::vector<std::uint64_t> universe =
      pint_fuzz::path_universe(seed, universe_size);
  pint::PathTracingConfig path_cfg;
  path_cfg.bits = bits;
  path_cfg.instances = instances;
  path_cfg.d = 1 + ((scheme_byte >> 3) & 15);
  path_cfg.variant = static_cast<pint::SchemeVariant>((scheme_byte & 7) % 5);

  pint::HashedDecoderConfig cfg;
  cfg.k = k;
  cfg.bits = bits;
  cfg.instances = instances;
  cfg.scheme = pint::make_scheme(path_cfg.variant, path_cfg.d);
  if (scheme_byte & 0x80) cfg.scheme = pint::make_fast(cfg.scheme);
  pint::HashedPathDecoder decoder(cfg, pint::GlobalHash(seed), universe);

  pint::PintFramework::Builder builder;
  builder.global_bit_budget(bits * instances)
      .seed(seed)
      .memory_ceiling_bytes(4096)
      .switch_universe(universe)
      .add_query(pint::make_path_query("path", bits * instances, 1.0,
                                       path_cfg));
  const auto fw = builder.build_or_throw();
  std::vector<unsigned> widths(fw->max_lanes());

  std::uint64_t dropped = 0;
  const std::size_t record_bytes = 4 + 8 * instances;
  const std::uint8_t* rest = params.rest_data();
  std::size_t left = params.rest_size();
  for (; left >= record_bytes; rest += record_bytes, left -= record_bytes) {
    const pint::PacketId id = read_le(rest, 4);
    std::vector<pint::Digest> lanes(instances);
    for (unsigned i = 0; i < instances; ++i) {
      lanes[i] = read_le(rest + 4 + 8 * i, 8);
    }

    // Standalone decoder: the documented throw, and nothing changes.
    const Snapshot before = snapshot(decoder);
    try {
      decoder.add_packet(id, lanes);
    } catch (const std::runtime_error&) {
      FUZZ_CHECK(snapshot(decoder) == before);
    }
    check_coherent(decoder, universe);

    // Framework sink: lanes as the wire would deliver them (one per
    // width in the packet's layout, masked to that width). Two flows share
    // the stream so eviction has something to choose between.
    pint::Packet packet;
    packet.id = id;
    packet.tuple.src_port = static_cast<std::uint16_t>(id & 1);
    const std::size_t n = fw->lane_widths(id, widths);
    packet.digests.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      packet.digests[i] =
          lanes[i % instances] & pint::low_bits_mask(widths[i]);
    }
    pint::SinkReport report;
    try {
      fw->at_sink(packet, k, report);
    } catch (...) {
      FUZZ_CHECK(false && "at_sink must not throw");
    }
    // Plain LRU admits every flow, so a decodable packet lacks its path
    // observation only when its decoder was dropped on a conflict.
    if (n > 0 && report.empty()) ++dropped;
  }
  const pint::MemoryReport mem = fw->memory_report();
  const pint::QueryMemoryStats* stats = mem.find("path");
  FUZZ_CHECK(stats != nullptr);
  FUZZ_CHECK(stats->decode_conflicts == dropped);
  FUZZ_CHECK(stats->used_bytes <=
             stats->capacity_bytes + stats->max_entry_bytes);
  return 0;
}
