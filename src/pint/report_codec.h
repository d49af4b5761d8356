/// \file
/// Compact serialization of sink observer streams (SinkReport <-> bytes).
///
/// Multi-sink scale-out splits the Recording Module across processes: each
/// sink decodes its share of the digests locally and ships the *results* —
/// its observer stream of (context, query, observation) events — to one
/// central Inference Module. This codec defines that wire format:
///
///  * `ReportEncoder` accumulates events (or whole SinkReports) and
///    `finish()`es them into one self-contained buffer: a magic/version
///    header, an interned query-name table, then varint-packed records.
///    Doubles travel as raw IEEE-754 bits, so a round trip is byte-exact.
///  * `ReportDecoder` parses buffers from any number of sinks; it returns
///    false on malformed input instead of throwing, and interns query names
///    so decoded `string_view`s stay valid for the decoder's lifetime.
///  * `dispatch()` replays decoded records into ordinary SinkObservers, so
///    the `src/apps/` adapters work unchanged behind a fan-in.
///  * `EncodingObserver` is the sink-side adapter: subscribe it (one per
///    shard via `ShardedSink::add_shard_observer`, or one via
///    `ShardedSink::add_observer` for serialized delivery) and every
///    callback lands in an encoder.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "pint/sink_report.h"

namespace pint {

/// One decoded observer event: an observation, or (when `path_event` is
/// true) a completed path decode carrying `path`.
struct StreamRecord {
  SinkContext ctx{};
  std::string_view query;
  Observation observation{};
  bool path_event = false;
  std::vector<SwitchId> path{};
};

/// Accumulates observer events and serializes them into one buffer.
///
/// The record bytes are made as the events arrive: `add`/`add_path` write
/// each record's body (everything after its name index) into one byte log,
/// so under `ShardedSink::add_shard_observer` the shard workers serialize
/// their own records. `finish()`/`finish_chunked()` only write each
/// buffer's header and first-use name table and copy the bodies behind
/// their buffer-local name indices.
///
/// Not thread-safe: give each shard its own encoder
/// (`ShardedSink::add_shard_observer`) or serialize access (ShardedSink's
/// `add_observer` delivery does). `finish()` resets the encoder for the
/// next epoch (keeping its buffers' capacity), so one encoder can emit a
/// stream of buffers.
class ReportEncoder {
 public:
  /// Records one `SinkObserver::on_observation` event.
  void add(const SinkContext& ctx, std::string_view query,
           const Observation& obs);

  /// Records one `SinkObserver::on_path_decoded` event.
  void add_path(const SinkContext& ctx, std::string_view query,
                const std::vector<SwitchId>& path);

  /// Records every entry of a SinkReport under one packet context. The
  /// report does not carry per-query flow keys, so `ctx.flow` is encoded
  /// as 0 for these records.
  void add(PacketId packet, unsigned k, const SinkReport& report);

  /// Events recorded since the last finish().
  std::size_t records() const { return records_.size(); }

  /// Serializes everything recorded so far and resets the encoder.
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Like finish(), but splits the pending records into buffers of at most
  /// `max_records` records each, in record order. Every buffer is
  /// self-contained (own magic + name table), so each can be framed,
  /// shipped, and decoded independently — losing one frame costs only that
  /// frame's records, not the epoch. Resets the encoder.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> finish_chunked(
      std::size_t max_records);

 private:
  // Where record i's body starts in body_ (it ends where record i + 1's
  // starts), and its query's index into names_.
  struct RecordRef {
    std::size_t offset = 0;
    std::uint32_t name = 0;
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint32_t intern(std::string_view name);
  /// Opens a record for `query` and writes the body fields every tag
  /// shares; returns the write position for the tag's payload.
  std::uint8_t* begin_record(std::string_view query, std::uint8_t tag,
                             const SinkContext& ctx,
                             std::size_t max_payload_bytes);
  /// Closes the open record at `end`, one past its last written byte.
  void end_record(const std::uint8_t* end);
  std::vector<std::uint8_t> encode_range(std::size_t lo, std::size_t hi) const;
  void reset();

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      name_index_;
  std::vector<RecordRef> records_;
  std::vector<std::uint8_t> body_;  // every record's bytes after its name
};

/// Parses buffers produced by ReportEncoder::finish().
///
/// A decoder may ingest buffers from many sinks; query names are interned
/// once and every decoded `StreamRecord::query` view stays valid for the
/// decoder's lifetime.
///
/// The hot path is `dispatch()`: it reads varints and name-table views
/// directly off the input bytes into reusable scratch (no per-record
/// vectors, no string materialization — steady-state decoding allocates
/// nothing once the scratch is warm) and replays the records straight into
/// observers. `decode()` shares the same zero-copy parse and then
/// materializes owning StreamRecords for callers that want them.
class ReportDecoder {
 public:
  /// Appends the buffer's records to `out`. Returns false (leaving `out`
  /// untouched) if the buffer is truncated, has a bad magic/version, or
  /// references an out-of-range name.
  [[nodiscard]] bool decode(std::span<const std::uint8_t> bytes,
                            std::vector<StreamRecord>& out);

  /// Zero-copy replay: parses `bytes` and fires the records into
  /// `observers` in record order, reading straight from the input span.
  /// The buffer is fully validated *before* the first callback, so a
  /// malformed buffer returns false and dispatches nothing — exactly
  /// decode()'s rejection behavior. `records_out`, if non-null, is
  /// incremented by the number of records replayed. Query-name views
  /// passed to callbacks are interned and stay valid for the decoder's
  /// lifetime.
  ///
  /// Not reentrant: callbacks replay out of this decoder's reused
  /// scratch, so an observer must not call back into the *same* decoder
  /// (or the FanInCollector that owns it) — mirroring SinkObserver's
  /// no-reentry contract toward the framework. Observers that forward
  /// into another pipeline must buffer and replay after dispatch()
  /// returns (or use a separate decoder).
  [[nodiscard]] bool dispatch(std::span<const std::uint8_t> bytes,
                              std::span<SinkObserver* const> observers,
                              std::uint64_t* records_out = nullptr);

 private:
  // One parsed record, flyweight: names are indices into names_scratch_,
  // path elements live in path_pool_ — nothing owns heap of its own, so
  // the scratch vectors are reused buffer after buffer.
  struct CompactRecord {
    SinkContext ctx{};
    std::uint32_t name = 0;
    std::uint8_t tag = 0;
    std::uint8_t flag = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t path_off = 0;
    std::uint32_t path_len = 0;
  };

  std::string_view intern(std::string_view name);
  /// Validating zero-copy parse into the scratch members; false on any
  /// malformed input (scratch contents are then meaningless).
  bool parse(std::span<const std::uint8_t> bytes);

  std::deque<std::string> interned_;  // stable storage for query names
  std::unordered_map<std::string_view, std::string_view> index_;
  // Reused across calls: cleared, never shrunk.
  std::vector<std::string_view> names_scratch_;  // views into the input
  std::vector<std::string_view> stable_scratch_;  // interned counterparts
  std::vector<CompactRecord> records_scratch_;
  std::vector<SwitchId> path_pool_;   // all path records' elements, packed
  std::vector<SwitchId> path_call_;   // one path, for the callback signature
};

/// Replays decoded records into observers, in record order: observation
/// records fire `on_observation`, path events fire `on_path_decoded`.
void dispatch(std::span<const StreamRecord> records,
              std::span<SinkObserver* const> observers);

/// Sink-side adapter: every observer callback is recorded into `encoder`.
/// The encoder must outlive the observer. Register one adapter and encoder
/// per shard through `ShardedSink::add_shard_observer`, or one through
/// `ShardedSink::add_observer` so calls arrive serialized.
class EncodingObserver : public SinkObserver {
 public:
  explicit EncodingObserver(ReportEncoder& encoder) : encoder_(encoder) {}

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    encoder_.add(ctx, query, obs);
  }

  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    encoder_.add_path(ctx, query, path);
  }

 private:
  ReportEncoder& encoder_;
};

}  // namespace pint
