// Fuzz target: digest bit-packing (pint/wire_format.h).
//
// The packer sits on the simulated wire: every packet's digest bitstring
// goes through pack_digests/unpack_digests, and both ends must agree on
// the layout bit-for-bit. This target derives a lane-width vector and a
// wire payload from the fuzz input, then checks:
//
//  * unpack on a correctly sized buffer never throws and yields in-range
//    lanes (lane i < 2^widths[i]);
//  * pack(unpack(x)) is a fixed point — repacking decoded lanes and
//    decoding again reproduces them exactly;
//  * the allocation-free *_into variants agree with the allocating ones;
//  * both directions agree bit for bit with a bit-at-a-time reference of
//    the layout (the word-at-a-time packer is checked against the
//    definition, not only against itself);
//  * the documented throwing paths (width out of [1,64], wrong buffer
//    size) throw std::invalid_argument and nothing else.
//
// Input layout: byte 0 = lane count (capped), then one byte per lane
// width, then the wire payload.
#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "fuzz/fuzz_util.h"
#include "pint/wire_format.h"

namespace {

// The layout by definition: lane i's bit b is stream bit
// (sum of earlier widths) + b, LSB-first within each byte.
std::vector<std::uint8_t> reference_pack(std::span<const pint::Digest> lanes,
                                         std::span<const unsigned> widths) {
  std::vector<std::uint8_t> out(pint::wire_bytes(widths), 0);
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

std::vector<pint::Digest> reference_unpack(std::span<const std::uint8_t> bytes,
                                           std::span<const unsigned> widths) {
  std::vector<pint::Digest> out;
  std::size_t bit_pos = 0;
  for (unsigned w : widths) {
    pint::Digest v = 0;
    for (unsigned b = 0; b < w; ++b, ++bit_pos) {
      if ((bytes[bit_pos >> 3] >> (bit_pos & 7)) & 1) {
        v |= pint::Digest{1} << b;
      }
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  pint_fuzz::ParamReader params(data, size);
  const std::size_t lane_count = params.byte() % 17;  // 0..16 lanes
  std::vector<unsigned> widths(lane_count);
  for (unsigned& w : widths) w = 1 + params.byte() % 64;  // valid [1, 64]

  // Wire payload: exactly wire_bytes(widths), taken from the input and
  // zero-padded if the input runs short.
  std::vector<std::uint8_t> wire(pint::wire_bytes(widths), 0);
  const std::size_t avail = std::min(wire.size(), params.rest_size());
  for (std::size_t i = 0; i < avail; ++i) wire[i] = params.rest_data()[i];

  // Well-formed inputs must decode without throwing, in range.
  const std::vector<pint::Digest> lanes = pint::unpack_digests(wire, widths);
  FUZZ_CHECK(lanes.size() == widths.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    FUZZ_CHECK(lanes[i] <= pint::low_bits_mask(widths[i]));
  }

  // Differential: both directions against the bit-at-a-time definition.
  FUZZ_CHECK(lanes == reference_unpack(wire, widths));
  FUZZ_CHECK(pint::pack_digests(lanes, widths) ==
             reference_pack(lanes, widths));

  // pack -> unpack fixed point. (wire itself may differ from the repacked
  // bytes only in the padding bits of the last byte, so the comparison is
  // on lanes, not bytes.)
  const std::vector<std::uint8_t> repacked = pint::pack_digests(lanes, widths);
  FUZZ_CHECK(repacked.size() == wire.size());
  FUZZ_CHECK(pint::unpack_digests(repacked, widths) == lanes);

  // The caller-owned-buffer variants must agree with the allocating ones.
  std::vector<std::uint8_t> packed_into(wire.size(), 0xFF);
  FUZZ_CHECK(pint::pack_digests_into(lanes, widths, packed_into) ==
             repacked.size());
  FUZZ_CHECK(packed_into == repacked);
  std::vector<pint::Digest> unpacked_into(widths.size(), ~pint::Digest{0});
  FUZZ_CHECK(pint::unpack_digests_into(wire, widths, unpacked_into) ==
             lanes.size());
  FUZZ_CHECK(unpacked_into == lanes);

  // Malformed-argument paths: must throw std::invalid_argument, not crash
  // or misparse. Any other exception type escapes and counts as a crash.
  if (!widths.empty()) {
    std::vector<unsigned> bad = widths;
    bad[0] = 65;  // width out of range
    try {
      std::ignore = pint::unpack_digests(wire, bad);
      FUZZ_CHECK(false && "width 65 must throw");
    } catch (const std::invalid_argument&) {
    }
    std::vector<std::uint8_t> short_wire(wire);
    short_wire.pop_back();  // wire_bytes mismatch
    try {
      std::ignore = pint::unpack_digests(short_wire, widths);
      FUZZ_CHECK(false && "short buffer must throw");
    } catch (const std::invalid_argument&) {
    }
  }
  return 0;
}
