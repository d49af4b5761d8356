#include "pint/frame.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace pint {

// Wire layout (all multi-byte integers little-endian, fixed width):
//
//   0  magic "PFR1" (4 bytes)
//   4  version (1 byte, currently 1)
//   5  type (1 byte: FrameType)
//   6  source id (u32)
//   10 epoch (u32)
//   14 sequence number (u32, per source, across all frame types)
//   18 payload length (u32)
//   22 CRC-32 over bytes [0, 22) and the payload (u32)
//   26 payload bytes
//
// Fixed-width fields (rather than varints) keep the header
// self-delimiting before validation: a reassembler can bound-check a
// candidate header without trusting any of its content.

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'P', 'F', 'R', '1'};
constexpr std::uint8_t kVersion = 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: table k maps a
// byte to its CRC contribution k bytes further along, so eight input bytes
// fold into the register with eight independent lookups per step instead
// of eight dependent ones.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t len) {
  const CrcTables& t = crc_tables();
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ read_u32(data);
    const std::uint32_t hi = read_u32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t frame_crc(const std::uint8_t* header,
                        const std::uint8_t* payload, std::size_t payload_len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  crc = crc32_update(crc, header, 22);
  crc = crc32_update(crc, payload, payload_len);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32_update(0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

const char* to_string(FrameErrorCode code) {
  switch (code) {
    case FrameErrorCode::kBadMagic:
      return "bytes are not a frame header";
    case FrameErrorCode::kBadVersion:
      return "unknown frame version";
    case FrameErrorCode::kBadType:
      return "unknown frame type";
    case FrameErrorCode::kOversizedPayload:
      return "declared payload above the reassembler limit";
    case FrameErrorCode::kChecksumMismatch:
      return "frame checksum mismatch";
    case FrameErrorCode::kSequenceGap:
      return "frames missing before this sequence number";
    case FrameErrorCode::kSequenceReversal:
      return "sequence number went backwards";
    case FrameErrorCode::kTruncatedStream:
      return "stream ended inside a frame";
  }
  return "unknown frame error";
}

std::uint32_t Frame::close_payload_count() const {
  if (type != FrameType::kEpochClose || payload.size() != 4) return 0;
  return read_u32(payload.data());
}

std::uint32_t FrameView::close_payload_count() const {
  if (type != FrameType::kEpochClose || payload.size() != 4) return 0;
  return read_u32(payload.data());
}

std::optional<FrameType> peek_frame_type(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) return std::nullopt;
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    return std::nullopt;
  }
  if (bytes[4] != kVersion) return std::nullopt;
  const std::uint8_t type = bytes[5];
  if (type > static_cast<std::uint8_t>(FrameType::kEpochClose)) {
    return std::nullopt;
  }
  return static_cast<FrameType>(type);
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t source, std::uint32_t epoch, std::uint32_t seq,
                  std::span<const std::uint8_t> payload) {
  const std::size_t header_at = out.size();
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u32(out, source);
  put_u32(out, epoch);
  put_u32(out, seq);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  // CRC covers the header written so far plus the payload; write payload
  // after the checksum field.
  const std::uint32_t crc =
      frame_crc(out.data() + header_at, payload.data(), payload.size());
  put_u32(out, crc);
  out.insert(out.end(), payload.begin(), payload.end());
}

// --- FrameWriter ------------------------------------------------------------

std::vector<std::uint8_t> FrameWriter::make_open() {
  if (epoch_open_) {
    // Protocol misuse on our own side is a programming error, not wire
    // corruption; fail loudly.
    throw std::logic_error("FrameWriter: epoch already open");
  }
  ++epoch_;
  epoch_open_ = true;
  epoch_payloads_ = 0;
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::kEpochOpen, source_, epoch_, seq_++, {});
  return out;
}

std::vector<std::uint8_t> FrameWriter::make_payload(
    std::span<const std::uint8_t> bytes) {
  if (!epoch_open_) throw std::logic_error("FrameWriter: no open epoch");
  ++epoch_payloads_;
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + bytes.size());
  append_frame(out, FrameType::kPayload, source_, epoch_, seq_++, bytes);
  return out;
}

void FrameWriter::payload_dropped() {
  if (epoch_payloads_ == 0) {
    throw std::logic_error("FrameWriter: no payload to drop");
  }
  --epoch_payloads_;  // the close marker counts frames actually shipped
  ++dropped_;
}

std::vector<std::uint8_t> FrameWriter::make_close() {
  if (!epoch_open_) throw std::logic_error("FrameWriter: no open epoch");
  epoch_open_ = false;
  std::vector<std::uint8_t> count;
  put_u32(count, epoch_payloads_);
  std::vector<std::uint8_t> out;
  append_frame(out, FrameType::kEpochClose, source_, epoch_, seq_++, count);
  return out;
}

// --- FrameReassembler -------------------------------------------------------

void FrameReassembler::feed(std::span<const std::uint8_t> bytes) {
  // Reclaim the consumed prefix before growing; amortized O(1) per byte.
  // Only while no events are pending: parsed frames (and outstanding
  // FrameViews) reference payload bytes by absolute buffer offset, and
  // compaction would shift them.
  if (events_.empty() && cursor_ > 4096 && cursor_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    cursor_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameReassembler::finish() { finished_ = true; }

std::optional<FrameReassembler::ParsedEvent> FrameReassembler::next_parsed() {
  if (events_.empty()) parse_more();
  if (events_.empty()) return std::nullopt;
  // Swap-out instead of move-construct: dodges a GCC 12 spurious
  // -Wmaybe-uninitialized on moving a variant out of the deque.
  ParsedEvent event{FrameError{}};
  std::swap(event, events_.front());
  events_.pop_front();
  return event;
}

std::optional<FrameEvent> FrameReassembler::next() {
  std::optional<ParsedEvent> parsed = next_parsed();
  if (!parsed.has_value()) return std::nullopt;
  if (const auto* error = std::get_if<FrameError>(&*parsed)) return *error;
  const ParsedFrame& pf = std::get<ParsedFrame>(*parsed);
  Frame frame;
  frame.type = pf.type;
  frame.source = pf.source;
  frame.epoch = pf.epoch;
  frame.seq = pf.seq;
  frame.payload.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(pf.payload_offset),
      buffer_.begin() +
          static_cast<std::ptrdiff_t>(pf.payload_offset + pf.payload_len));
  return frame;
}

std::optional<FrameViewEvent> FrameReassembler::next_view() {
  std::optional<ParsedEvent> parsed = next_parsed();
  if (!parsed.has_value()) return std::nullopt;
  if (const auto* error = std::get_if<FrameError>(&*parsed)) return *error;
  const ParsedFrame& pf = std::get<ParsedFrame>(*parsed);
  FrameView view;
  view.type = pf.type;
  view.source = pf.source;
  view.epoch = pf.epoch;
  view.seq = pf.seq;
  view.payload = std::span<const std::uint8_t>(
      buffer_.data() + pf.payload_offset, pf.payload_len);
  return view;
}

void FrameReassembler::parse_more() {
  const auto flush_skipped = [&] {
    if (skipped_since_sync_ > 0) {
      events_.push_back(FrameError{FrameErrorCode::kBadMagic, 0,
                                   skipped_since_sync_});
      skipped_since_sync_ = 0;
    }
  };

  while (events_.empty()) {
    // Resynchronize: skip bytes until a full magic prefix lines up.
    while (cursor_ < buffer_.size()) {
      const std::size_t available = buffer_.size() - cursor_;
      const std::size_t check = std::min(available, kMagic.size());
      if (std::memcmp(buffer_.data() + cursor_, kMagic.data(), check) == 0) {
        break;  // full or partial magic match at cursor_
      }
      ++cursor_;
      ++bytes_consumed_;
      ++skipped_since_sync_;
    }
    const std::size_t available = buffer_.size() - cursor_;
    if (available < kFrameHeaderBytes) {
      if (!finished_) return;  // need more bytes
      // End of stream. Leftover bytes are either resync garbage or a torn
      // header; report and consume them.
      if (available > 0 && !truncation_reported_) {
        flush_skipped();
        events_.push_back(
            FrameError{FrameErrorCode::kTruncatedStream, 0, available});
        truncation_reported_ = true;
        bytes_consumed_ += available;
        cursor_ = buffer_.size();
        continue;
      }
      flush_skipped();
      return;
    }

    const std::uint8_t* h = buffer_.data() + cursor_;
    const std::uint8_t version = h[4];
    const std::uint8_t type = h[5];
    const std::uint32_t source = read_u32(h + 6);
    const std::uint32_t epoch = read_u32(h + 10);
    const std::uint32_t seq = read_u32(h + 14);
    const std::uint32_t payload_len = read_u32(h + 18);
    const std::uint32_t wire_crc = read_u32(h + 22);

    // Header sanity before trusting payload_len. A bad field could be a
    // corrupted header *or* payload bytes that happen to contain the
    // magic; either way, advance one byte and let the scanner resync.
    if (version != kVersion) {
      flush_skipped();
      events_.push_back(FrameError{FrameErrorCode::kBadVersion, 0, version});
      ++cursor_;
      ++bytes_consumed_;
      continue;
    }
    if (type > static_cast<std::uint8_t>(FrameType::kEpochClose)) {
      flush_skipped();
      events_.push_back(FrameError{FrameErrorCode::kBadType, source, type});
      ++cursor_;
      ++bytes_consumed_;
      continue;
    }
    if (payload_len > max_payload_) {
      flush_skipped();
      events_.push_back(
          FrameError{FrameErrorCode::kOversizedPayload, source, payload_len});
      ++cursor_;
      ++bytes_consumed_;
      continue;
    }
    const std::size_t frame_size = kFrameHeaderBytes + payload_len;
    if (available < frame_size) {
      if (!finished_) return;  // need more bytes
      if (!truncation_reported_) {
        flush_skipped();
        events_.push_back(
            FrameError{FrameErrorCode::kTruncatedStream, source, available});
        truncation_reported_ = true;
      }
      bytes_consumed_ += available;
      cursor_ = buffer_.size();
      continue;
    }

    const std::uint8_t* payload = h + kFrameHeaderBytes;
    if (frame_crc(h, payload, payload_len) != wire_crc) {
      flush_skipped();
      events_.push_back(
          FrameError{FrameErrorCode::kChecksumMismatch, source, seq});
      // The declared length was covered by the (failed) CRC, but skipping
      // it re-locks instantly when only payload bits flipped; if the
      // length itself was corrupt, the magic scanner recovers.
      cursor_ += frame_size;
      bytes_consumed_ += frame_size;
      continue;
    }

    flush_skipped();

    // Sequence accounting per source, across every frame type.
    auto [it, first] = next_seq_.try_emplace(source, seq);
    if (!first) {
      const std::uint32_t expected = it->second;
      if (seq > expected) {
        events_.push_back(
            FrameError{FrameErrorCode::kSequenceGap, source, seq - expected});
      } else if (seq < expected) {
        events_.push_back(FrameError{FrameErrorCode::kSequenceReversal, source,
                                     expected - seq});
      }
    }
    if (seq + 1 > it->second) it->second = seq + 1;

    ParsedFrame frame;
    frame.type = static_cast<FrameType>(type);
    frame.source = source;
    frame.epoch = epoch;
    frame.seq = seq;
    frame.payload_offset = cursor_ + kFrameHeaderBytes;
    frame.payload_len = payload_len;
    events_.push_back(frame);
    ++frames_parsed_;
    cursor_ += frame_size;
    bytes_consumed_ += frame_size;
  }
}

}  // namespace pint
