#include "pint/wire_format.h"

#include <algorithm>

namespace pint {

namespace {

// Lanes move through a 128-bit accumulator: at most 63 bits wait in it
// between lanes, so one more lane (<= 64 bits) or one 64-bit load always
// fits.
__extension__ using Accumulator = unsigned __int128;

std::size_t checked_total_bits(std::span<const unsigned> widths) {
  std::size_t total_bits = 0;
  for (unsigned w : widths) {
    if (w == 0 || w > 64) throw std::invalid_argument("width in [1,64]");
    total_bits += w;
  }
  return total_bits;
}

// Little-endian 64-bit store/load, byte by byte so the layout does not
// depend on the host; compilers fold each into one move.
void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::size_t pack_digests_into(std::span<const Digest> lanes,
                              std::span<const unsigned> widths,
                              std::span<std::uint8_t> out) {
  if (lanes.size() != widths.size())
    throw std::invalid_argument("lane/width count mismatch");
  const std::size_t total_bits = checked_total_bits(widths);
  const std::size_t bytes = (total_bits + 7) / 8;
  if (out.size() < bytes) throw std::invalid_argument("output too small");
  Accumulator acc = 0;
  unsigned acc_bits = 0;
  std::uint8_t* p = out.data();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const Digest value = lanes[i] & low_bits_mask(widths[i]);
    if (value != lanes[i])
      throw std::invalid_argument("lane value exceeds its width");
    acc |= static_cast<Accumulator>(value) << acc_bits;
    acc_bits += widths[i];
    if (acc_bits >= 64) {  // a full word is pending, so `out` has room
      store_le64(p, static_cast<std::uint64_t>(acc));
      p += 8;
      acc >>= 64;
      acc_bits -= 64;
    }
  }
  // Tail: the remaining bits, zero-padded to a whole byte.
  for (; acc_bits > 0; acc_bits -= std::min(acc_bits, 8u)) {
    *p++ = static_cast<std::uint8_t>(acc);
    acc >>= 8;
  }
  return bytes;
}

std::size_t unpack_digests_into(std::span<const std::uint8_t> bytes,
                                std::span<const unsigned> widths,
                                std::span<Digest> out) {
  const std::size_t total_bits = checked_total_bits(widths);
  if (bytes.size() < (total_bits + 7) / 8)
    throw std::invalid_argument("buffer too small for widths");
  if (out.size() < widths.size())
    throw std::invalid_argument("output too small");
  Accumulator acc = 0;
  unsigned acc_bits = 0;
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const unsigned w = widths[i];
    // Refill a word at a time while the buffer has one, else a byte: the
    // length check above guarantees the bytes this lane needs exist.
    while (acc_bits < w) {
      if (end - p >= 8) {
        acc |= static_cast<Accumulator>(load_le64(p)) << acc_bits;
        p += 8;
        acc_bits += 64;
      } else {
        acc |= static_cast<Accumulator>(*p++) << acc_bits;
        acc_bits += 8;
      }
    }
    out[i] = static_cast<Digest>(acc) & low_bits_mask(w);
    acc >>= w;
    acc_bits -= w;
  }
  return widths.size();
}

std::vector<std::uint8_t> pack_digests(std::span<const Digest> lanes,
                                       std::span<const unsigned> widths) {
  std::vector<std::uint8_t> out((checked_total_bits(widths) + 7) / 8, 0);
  pack_digests_into(lanes, widths, out);
  return out;
}

std::vector<Digest> unpack_digests(std::span<const std::uint8_t> bytes,
                                   std::span<const unsigned> widths) {
  std::vector<Digest> out(widths.size());
  unpack_digests_into(bytes, widths, out);
  return out;
}

}  // namespace pint
