/// \file
/// Epoch/sequence framing for sink -> collector report streams.
///
/// The report codec (pint/report_codec.h) produces self-contained buffers,
/// but a byte stream (transport/stream.h) has no message boundaries and a
/// real network adds loss, truncation, and corruption. This layer makes
/// multi-source streams mergeable and loss-detectable — the in-network
/// ordering lesson: every buffer travels as a *frame* with
///
///   * a fixed header: magic, version, type, source id, epoch number,
///     per-source sequence number, payload length, CRC-32 over header and
///     payload;
///   * epoch open/close marker frames bracketing each reporting interval
///     (the close marker carries the number of payload frames shipped in
///     the epoch, so a receiver can tell "all arrived" from "some lost"
///     without trusting sequence numbers alone);
///   * monotonically increasing per-source sequence numbers across *all*
///     frames, so any gap — a dropped frame, deliberate (backpressure
///     drop-newest) or not — is visible at the receiver.
///
/// `FrameReassembler` consumes the raw byte stream in arbitrary chunks and
/// yields typed events: complete validated frames, or `FrameError`s for
/// torn, truncated, bit-flipped, spliced, or reordered input. It never
/// throws on malformed bytes and resynchronizes on the next magic after
/// corruption, so one flipped bit costs one frame, not the stream.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <variant>
#include <vector>

namespace pint {

/// What a frame carries.
enum class FrameType : std::uint8_t {
  kEpochOpen = 0,   ///< marker: the source starts epoch `epoch` (no payload)
  kPayload = 1,     ///< one self-contained report-codec buffer
  kEpochClose = 2,  ///< marker: epoch done; payload = u32 LE payload count
};

/// Typed decode failures; the reassembler reports these instead of
/// misparsing or crashing.
enum class FrameErrorCode : std::uint8_t {
  kBadMagic,          ///< resynced past bytes that are not a frame header
  kBadVersion,        ///< header magic ok, unknown version
  kBadType,           ///< header ok, unknown frame type
  kOversizedPayload,  ///< declared length above the reassembler's limit
  kChecksumMismatch,  ///< header/payload CRC failed (bit flip in transit)
  kSequenceGap,       ///< frames missing before this one (detail = count)
  kSequenceReversal,  ///< sequence went backwards (reorder or replay)
  kTruncatedStream,   ///< stream ended inside a frame (detail = bytes)
};

const char* to_string(FrameErrorCode code);

/// One validated frame.
struct Frame {
  FrameType type = FrameType::kPayload;
  std::uint32_t source = 0;
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> payload;

  /// Payload-frame count carried by an epoch-close marker (0 otherwise).
  [[nodiscard]] std::uint32_t close_payload_count() const;
};

/// One decode failure, with enough context to attribute it.
struct FrameError {
  FrameErrorCode code = FrameErrorCode::kBadMagic;
  std::uint32_t source = 0;  ///< 0 when the source could not be parsed
  std::uint64_t detail = 0;  ///< code-specific: gap size, bytes skipped, ...
};

/// A reassembler event: a frame, or a typed error.
using FrameEvent = std::variant<Frame, FrameError>;

/// A validated frame whose payload is a view into the reassembler's parse
/// buffer — the zero-copy sibling of `Frame`. Valid until the next
/// `feed()` or `finish()` on the owning reassembler (draining events via
/// `next()`/`next_view()` does not invalidate it); consume before feeding.
struct FrameView {
  FrameType type = FrameType::kPayload;
  std::uint32_t source = 0;
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;
  std::span<const std::uint8_t> payload{};

  /// Payload-frame count carried by an epoch-close marker (0 otherwise).
  [[nodiscard]] std::uint32_t close_payload_count() const;
};

/// A zero-copy reassembler event: a frame view, or a typed error.
using FrameViewEvent = std::variant<FrameView, FrameError>;

/// Serialized size of a frame header on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 26;

/// Default cap a reassembler puts on declared payload lengths.
inline constexpr std::size_t kDefaultMaxFramePayload = 1u << 24;

/// CRC-32 of `bytes` (IEEE 802.3 polynomial, reflected; the zlib/Ethernet
/// checksum, so "123456789" gives 0xCBF43926). Frames carry it over their
/// header and payload.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Appends one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t source, std::uint32_t epoch, std::uint32_t seq,
                  std::span<const std::uint8_t> payload);

/// Reads the frame type out of a buffer that starts with a frame header
/// (magic + version checked; CRC is *not* — this is a cheap peek, not a
/// validation). nullopt if the buffer is too short, misaligned, or not a
/// frame. The socket sender uses this to classify chunks it is about to
/// write (epoch-open vs payload vs close) for reconnect resynchronization.
[[nodiscard]] std::optional<FrameType> peek_frame_type(
    std::span<const std::uint8_t> bytes);

/// Per-source frame emitter: tracks the epoch/sequence state machine so
/// call sites cannot emit out-of-protocol streams. Not thread-safe.
class FrameWriter {
 public:
  explicit FrameWriter(std::uint32_t source) : source_(source) {}

  /// Opens the next epoch (first call opens epoch 1). Must not already be
  /// in an epoch.
  [[nodiscard]] std::vector<std::uint8_t> make_open();

  /// One payload frame inside the open epoch. The sequence number is
  /// consumed even if the caller then drops the frame (so receivers see
  /// the gap); a dropped frame must be reported via payload_dropped() to
  /// keep the epoch-close count equal to frames actually shipped.
  [[nodiscard]] std::vector<std::uint8_t> make_payload(
      std::span<const std::uint8_t> bytes);

  /// Tells the writer the frame from the last make_payload() was dropped
  /// instead of written (backpressure drop-newest).
  void payload_dropped();

  /// Closes the open epoch; the marker carries the shipped-payload count.
  [[nodiscard]] std::vector<std::uint8_t> make_close();

  std::uint32_t source() const { return source_; }
  std::uint32_t epoch() const { return epoch_; }
  bool epoch_open() const { return epoch_open_; }
  std::uint64_t frames_dropped() const { return dropped_; }

 private:
  std::uint32_t source_;
  std::uint32_t epoch_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t epoch_payloads_ = 0;
  std::uint64_t dropped_ = 0;
  bool epoch_open_ = false;
};

/// Incremental frame parser over a torn byte stream.
///
/// feed() raw bytes in any chunking (single bytes are fine); next() yields
/// events until it returns nullopt (more bytes needed). After the
/// transport reports end-of-stream, call finish(): leftover bytes inside a
/// frame become a kTruncatedStream error. Malformed input costs events,
/// never exceptions; parsing always advances, so feeding arbitrary bytes
/// terminates.
class FrameReassembler {
 public:
  explicit FrameReassembler(
      std::size_t max_payload_bytes = kDefaultMaxFramePayload)
      : max_payload_(max_payload_bytes) {}

  /// Appends raw stream bytes to the parse buffer.
  void feed(std::span<const std::uint8_t> bytes);

  /// Next parsed event, or nullopt when the buffered bytes hold no
  /// complete frame (and no pending error). The frame's payload is an
  /// owning copy; prefer `next_view()` on hot paths.
  [[nodiscard]] std::optional<FrameEvent> next();

  /// Zero-copy variant of `next()`: the frame's payload is a view into
  /// the reassembler's parse buffer, valid until the next `feed()` or
  /// `finish()`. The fan-in collector drains frames through this, so a
  /// payload crosses from transport bytes to the report decoder without
  /// an intermediate copy.
  [[nodiscard]] std::optional<FrameViewEvent> next_view();

  /// Marks end-of-stream: a partially buffered frame is surfaced as
  /// kTruncatedStream by the following next() calls.
  void finish();

  std::uint64_t frames_parsed() const { return frames_parsed_; }
  std::uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  // Parsed frames reference the payload by position in buffer_ (offset is
  // absolute); materialization — as a copying Frame or a borrowed
  // FrameView — happens at next()/next_view() time. feed() compacts the
  // buffer only while no events are pending, so stored offsets stay valid.
  struct ParsedFrame {
    FrameType type = FrameType::kPayload;
    std::uint32_t source = 0;
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    std::size_t payload_offset = 0;
    std::size_t payload_len = 0;
  };
  using ParsedEvent = std::variant<ParsedFrame, FrameError>;

  void parse_more();  // moves bytes from buffer_ into events_
  std::optional<ParsedEvent> next_parsed();

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t cursor_ = 0;  // consumed prefix of buffer_
  std::deque<ParsedEvent> events_;
  std::unordered_map<std::uint32_t, std::uint32_t> next_seq_;  // per source
  std::uint64_t frames_parsed_ = 0;
  std::uint64_t bytes_consumed_ = 0;
  std::uint64_t skipped_since_sync_ = 0;  // bad bytes pending one kBadMagic
  bool finished_ = false;
  bool truncation_reported_ = false;
};

}  // namespace pint
