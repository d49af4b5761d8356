/// \file
/// Multi-sink fan-in: N sharded sinks feeding one Inference Module over a
/// real streaming transport.
///
/// The second scale-out axis after intra-sink sharding (pint/sharded_sink.h):
/// when one host cannot absorb the digest stream, the Recording Module is
/// split across several sink hosts, each homed to a disjoint set of flows
/// (in a datacenter fan-in topology, a collector per ToR/pod). Every sink
/// decodes locally, each of its shards serializes its own observer stream
/// with the report codec (pint/report_codec.h), and the sink ships them
/// through one byte stream
/// (transport/stream.h) under epoch/sequence framing (pint/frame.h):
///
///   sink 1: ShardedSink -> codec -> frames -> stream --+
///   sink 2: ShardedSink -> codec -> frames -> stream --+-> FanInCollector
///   sink N: ShardedSink -> codec -> frames -> stream --+   (Inference)
///
/// The sending half of one sink host is its own class, `FanInSender`, so
/// the same code runs in-process (FanInPipeline owns N of them) and
/// out-of-process (a forked sink process owns one, over a
/// `SocketSenderStream` to a `CollectorDaemon` — see
/// transport/collector_daemon.h). `FanInPipeline` wires either topology:
/// in-process stream kinds pump the collector inline; the daemon kinds
/// run a real listener on a background thread and the bytes cross a
/// kernel socket.
///
/// Each reporting interval is one *epoch*: an epoch-open marker, the
/// interval's payload frames (each a self-contained codec buffer), and an
/// epoch-close marker carrying the shipped-frame count, so the collector
/// can tell "all arrived" from "some lost" and report a source that died
/// mid-epoch instead of silently swallowing partial data.
///
/// The transport is bounded, so what happens when it fills is an explicit
/// BASEL-style policy, not an accident of queue growth:
///  * kBlock — the sink waits for the collector to drain (lossless);
///  * kDropNewest — the frame is dropped and counted; the receiver also
///    sees the sequence gap. Exact drop counts surface in
///    `FanInPipeline::epoch_report()` (a SinkReport with TransportCounters).
///    Only frames of the *lowest-priority* query class are droppable
///    (QuerySpec::priority): each epoch ships one self-contained record
///    stream per priority class and shard, highest class first, and
///    higher classes always take the blocking path. All-default priorities
///    collapse to a single class — with one shard, the pre-priority frame
///    stream, byte-identical.
///
/// Flows are routed to sinks by the same coarsest-common flow partition the
/// shards use, so every per-flow recorder lives at exactly one (sink, shard)
/// and — when no frames are dropped — merged results are byte-identical to
/// a single monolithic sink.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "packet/packet.h"
#include "pint/frame.h"
#include "pint/framework.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"
#include "transport/collector_daemon.h"
#include "transport/stream.h"

namespace pint {

class SocketSenderStream;

/// Which ByteStream implementation carries sink -> collector frames.
enum class StreamKind : std::uint8_t {
  kSpscRing,    ///< in-memory SPSC ring (tests/bench, shared-memory shape)
  kSocketPair,  ///< unix socketpair: a real kernel transport, one process
  kDaemonUnix,  ///< CollectorDaemon over a unix-domain socket
  kDaemonTcp,   ///< CollectorDaemon over localhost TCP
};

/// True for the kinds that run a CollectorDaemon listener (the bytes
/// cross a real socket; the collector is fed by the daemon's thread).
constexpr bool is_daemon_kind(StreamKind kind) {
  return kind == StreamKind::kDaemonUnix || kind == StreamKind::kDaemonTcp;
}

/// What a sink does when its stream cannot take the next payload frame.
enum class BackpressurePolicy : std::uint8_t {
  kBlock,       ///< wait for the collector to drain (lossless)
  kDropNewest,  ///< drop the new frame, count it (bounded latency)
};

/// Sizing of the fan-in pipeline.
struct FanInConfig {
  unsigned num_sinks = 2;        ///< independent sink hosts
  unsigned shards_per_sink = 1;  ///< worker threads inside each sink
  /// Packets staged per sink (all path lengths together, in arrival
  /// order) before a submit() is issued.
  std::size_t batch_size = 256;
  StreamKind stream = StreamKind::kSpscRing;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Per-sink stream capacity (ring size / socket buffer hint). Must
  /// comfortably hold one payload frame (~32 bytes per record plus paths)
  /// or kBlock shipping fails loudly.
  std::size_t stream_capacity_bytes = 1 << 18;
  /// Records per payload frame: an epoch's observer stream is split into
  /// self-contained codec buffers of at most this many records, so one
  /// dropped frame costs only its own records.
  std::size_t max_frame_records = 1024;
};

/// The central Inference-Module endpoint: reassembles framed streams from
/// any number of sources, tracks epoch integrity per source, decodes
/// payloads, and replays the records into registered observers.
/// Implements `StreamIngest`, so a `CollectorDaemon` can feed it from
/// real socket connections with identical semantics.
class FanInCollector final : public StreamIngest {
 public:
  /// Per-source receive-side accounting.
  struct SourceStatus {
    std::uint32_t current_epoch = 0;   ///< last epoch seen open
    bool epoch_open = false;           ///< inside an epoch right now
    bool ended = false;                ///< stream reached end-of-stream
    std::uint64_t epochs_completed = 0;   ///< closed with all frames present
    std::uint64_t epochs_incomplete = 0;  ///< died mid-epoch or frames lost
    std::uint64_t payload_frames = 0;
    std::uint64_t frames_missed = 0;   ///< summed sequence-gap sizes
    std::uint64_t decode_failures = 0;  ///< payloads the codec rejected
    std::uint64_t disconnects = 0;  ///< connection drops (source not ended)
  };

  /// Observers receive every record of every ingested stream, in stream
  /// order. Register before the first ingest. Callbacks replay out of the
  /// collector's reused decode scratch, so observers must not re-enter
  /// this collector (no ingest/end_stream from inside a callback) — the
  /// same no-reentry contract SinkObserver has toward the framework.
  void add_observer(SinkObserver* observer) { observers_.push_back(observer); }

  /// Feeds raw stream bytes from `source` through its reassembler and
  /// processes every complete frame — zero-copy: payloads go from the
  /// reassembler's parse buffer straight into the report decoder's
  /// dispatch, no intermediate frame or record materialization. Malformed
  /// bytes surface as typed FrameErrors in errors(), never as exceptions.
  /// Bytes for a source that already ended are ignored.
  void ingest_stream(std::uint32_t source,
                     std::span<const std::uint8_t> bytes) override;

  /// Signals end-of-stream for `source` (the transport hit EOF). An epoch
  /// still open at this point is counted incomplete — the source died
  /// mid-epoch. The source's reassembler (parse buffer, sequence ledger)
  /// is freed immediately — epoch-based GC, so a long-running collector's
  /// memory scales with *live* sources, not with every source that ever
  /// connected; the compact SourceStatus survives for reporting.
  void end_stream(std::uint32_t source) override;

  /// The source's connection dropped but the source is *not* done: an
  /// open epoch is counted incomplete (with any torn frame tail surfacing
  /// as a typed truncation error), and the reassembler is replaced with a
  /// fresh one so a reconnected stream resumes at a clean frame boundary
  /// with a fresh sequence baseline — the old connection's torn tail can
  /// never splice onto the new connection's bytes. Counted per source in
  /// SourceStatus::disconnects.
  void disconnect_stream(std::uint32_t source) override;

  /// Sources whose streams have not ended (each holds a live reassembler).
  std::size_t live_sources() const;

  /// Sources ever heard from, live or ended (compact status records).
  std::size_t sources_tracked() const { return sources_.size(); }

  /// Legacy unframed entry: decodes one self-contained codec buffer and
  /// dispatches its records. Returns false (and dispatches nothing) on
  /// malformed input. Bypasses epoch/sequence accounting.
  [[nodiscard]] bool ingest(std::span<const std::uint8_t> bytes);

  /// Receive-side accounting for one source (nullptr if never heard from).
  const SourceStatus* source_status(std::uint32_t source) const;

  /// Frame-layer errors observed so far, in arrival order (capped at
  /// kMaxLoggedErrors; `errors_total()` keeps counting past the cap).
  static constexpr std::size_t kMaxLoggedErrors = 1024;
  std::span<const FrameError> errors() const { return errors_; }
  std::uint64_t errors_total() const { return errors_total_; }

  /// Sources that ever ended a stream mid-epoch, summed.
  std::uint64_t incomplete_epochs() const;

  std::uint64_t bytes_ingested() const { return bytes_ingested_; }
  std::uint64_t records_ingested() const { return records_ingested_; }
  std::uint64_t frames_ingested() const { return frames_ingested_; }

 private:
  struct SourceState {
    // Null once the stream ended: the heavy reassembly state is dropped
    // (see end_stream), only the status summary stays.
    std::unique_ptr<FrameReassembler> reassembler;
    SourceStatus status;
    std::uint64_t payloads_this_epoch = 0;
  };

  void process_events(SourceState& state);
  void handle_frame(SourceState& state, const FrameView& frame);
  void note_error(const FrameError& error);

  // Threading contract: the collector is single-threaded by design — every
  // ledger below (per-source reassembly state, error log, byte/record
  // totals) is mutated only from the one thread that calls
  // ingest_stream()/end_stream()/disconnect_stream(). Concurrency lives
  // *upstream*: N sinks write framed bytes into their own ByteStreams (or
  // sockets) concurrently, and the streams — or the daemon's single event
  // loop — serialize delivery. Guarding these maps with a mutex would
  // synchronize nothing (one thread) while hiding misuse from TSAN; if a
  // concurrent collector is ever needed, shard it per-source like
  // ShardedSink rather than locking this one.
  ReportDecoder decoder_;
  std::vector<SinkObserver*> observers_;
  std::unordered_map<std::uint32_t, SourceState> sources_;
  std::vector<FrameError> errors_;
  std::uint64_t errors_total_ = 0;
  std::uint64_t bytes_ingested_ = 0;
  std::uint64_t records_ingested_ = 0;
  std::uint64_t frames_ingested_ = 0;
};

/// The sending half of one sink host: a ShardedSink, the shard-local
/// priority-class encoders, and the epoch/frame shipping state machine,
/// writing into any ByteStream. This is the piece a real deployment runs
/// *in the sink process* — the fork-based integration test
/// (tests/daemon_test.cc) runs exactly this class in child processes over a
/// SocketSenderStream, so the cross-process path exercises the same
/// shipping code (priority order, droppability, drop accounting) as the
/// in-process pipeline.
///
/// Delivered packets of every path length share one staging batch, in
/// arrival order (each sink item carries its own `k`); no partial batch
/// waits per path length for the epoch to end. Submitted batches are
/// recycled after the epoch's flush, so `deliver()` copy-assigns into
/// retained packets instead of allocating digest storage per packet.
///
/// Encoding is shard-local: each shard worker feeds its own routing tap
/// and its own per-class ReportEncoders through
/// `ShardedSink::add_shard_observer`, so no lock is taken per record, and
/// the worker writes each record's bytes as it adds it. The encoders are
/// read only by `ship_epoch()`, after `ShardedSink::flush()` has returned
/// — the happens-before that orders every worker's last `add` before
/// `finish_chunked`, which only frames and copies the workers' bytes; the
/// next `submit()` hands the reset encoders back to the workers. An epoch
/// ships class-major (highest priority first), then shard by shard within
/// a class, all under the one FrameWriter and source id. A flow lives on
/// one shard, so its records keep their order; only the interleaving
/// across shards differs from a single shard's stream.
class FanInSender {
 public:
  struct Config {
    unsigned shards = 1;  ///< worker threads inside the sink
    std::size_t batch_size = 256;
    std::size_t max_frame_records = 1024;
    BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  };

  /// Builds the sink and takes ownership of the outbound stream. `source`
  /// must match the id the far end attributes this stream to (for a
  /// SocketSenderStream, its hello source id).
  FanInSender(const PintFramework::Builder& builder, std::uint32_t source,
              std::unique_ptr<ByteStream> stream, Config config);

  FanInSender(const FanInSender&) = delete;
  FanInSender& operator=(const FanInSender&) = delete;

  /// Called every time a kBlock (or non-droppable) write is refused —
  /// the embedding's chance to drain the far end (in-process: pump the
  /// collector) or just wait (cross-process: the daemon drains on its
  /// own). Default: a short sleep.
  void set_on_block(std::function<void()> on_block) {
    on_block_ = std::move(on_block);
  }

  /// Routes one delivered packet (with its switch-hop count `k`) into the
  /// sink's staging. No-op once closed.
  void deliver(const Packet& packet, unsigned k);

  /// Closes out one reporting epoch: flushes the sink, splits each shard's
  /// pending observer stream into framed payload buffers per priority
  /// class, and ships them under an epoch-open/close bracket, applying the
  /// backpressure policy. `send_close=false` ships the open and payloads
  /// but no close marker — the mid-epoch-death half of fault injection.
  void ship_epoch(bool send_close = true);

  /// Closes the outbound stream; the far end sees end-of-stream. Further
  /// deliver()/ship_epoch() calls are ignored.
  void close();
  bool closed() const { return closed_; }

  std::uint32_t source() const { return writer_.source(); }
  ByteStream& stream() { return *stream_; }
  const ByteStream& stream() const { return *stream_; }
  ShardedSink& sink() { return *sink_; }
  const ShardedSink& sink() const { return *sink_; }
  const FrameWriter& writer() const { return writer_; }

  std::uint64_t frames_shipped() const { return frames_shipped_; }
  std::uint64_t bytes_shipped() const { return bytes_shipped_; }
  std::uint64_t blocked_waits() const { return blocked_waits_; }

 private:
  /// One shard's encoder for one class, on its own cache lines: the
  /// encoders of different shards are written by different workers.
  struct alignas(kCacheLineBytes) ShardEncoder {
    ReportEncoder encoder;
  };

  /// One priority class's pending observer streams, one per shard. Classes
  /// ship in descending priority order inside each epoch, and only the
  /// lowest class's payload frames are droppable under kDropNewest — so
  /// under pressure the stream sheds exactly the traffic the queries
  /// declared least important. With all-default priorities and one shard
  /// there is a single stream, byte-identical to the pre-priority layout.
  struct PriorityClass {
    unsigned priority = 1;
    std::vector<ShardEncoder> shards;  ///< index = shard
  };

  /// A run of delivered packets, in arrival order, with their path
  /// lengths. The vectors are kept across batches: slots past `size` hold
  /// retired packets whose digest storage the next deliver() reuses.
  struct StagedBatch {
    std::vector<Packet> packets;
    std::vector<unsigned> ks;
    std::size_t size = 0;
  };

  void submit_staged();
  void flush_sink();
  /// Applies the backpressure policy; returns false if the frame was
  /// dropped (only possible for droppable frames under kDropNewest).
  bool write_frame(std::span<const std::uint8_t> bytes, bool droppable);

  Config config_;
  // Descending priority; addresses are stable after construction (the
  // routing taps hold pointers into it).
  std::vector<PriorityClass> classes_;
  std::vector<std::unique_ptr<SinkObserver>> taps_;  // one per shard
  FrameWriter writer_;
  std::unique_ptr<ByteStream> stream_;
  std::function<void()> on_block_;
  // One staging batch for every path length (sink items carry their own
  // k), the submitted batches a pending flush() still references, and the
  // batches retired by the last flush(), recycled as staging.
  StagedBatch staging_;
  std::vector<StagedBatch> in_flight_;
  std::vector<StagedBatch> spare_;
  // Writer-side transport counters for this stream.
  std::uint64_t frames_shipped_ = 0;
  std::uint64_t bytes_shipped_ = 0;
  std::uint64_t blocked_waits_ = 0;
  bool closed_ = false;
  // Declared last, so destroyed first: ~ShardedSink joins the shard
  // workers, which read the staged batches and write the encoders above,
  // before any of those are freed.
  std::unique_ptr<ShardedSink> sink_;
};

/// N sharded sink hosts plus the collector, wired through framed streams.
///
/// Single-producer: deliver(), ship_epoch(), and the fault hooks must come
/// from one thread (the simulator's delivery path). Packets are copied
/// into per-sink staging, so the caller's packet may be transient.
///
/// In-process stream kinds (ring, socketpair) pump their own streams —
/// the "network" is in-process, so the kBlock policy drains the collector
/// inline instead of deadlocking. Daemon kinds run a real
/// `CollectorDaemon` (unix-domain or localhost TCP) on a background
/// thread; every sink's bytes cross a kernel socket through a
/// `SocketSenderStream`, and the collector is fed only by the daemon
/// thread. Read the collector (and source_status) after `shutdown()` —
/// the daemon thread is joined there, which is the happens-before that
/// makes the collector's single-threaded state safe to read.
class FanInPipeline {
 public:
  /// Builds `config.num_sinks` sinks, each with `config.shards_per_sink`
  /// shards, from one Builder (all replicas decode identically). Daemon
  /// kinds bind their listener here (throws TransportError on failure)
  /// and start the daemon thread.
  FanInPipeline(const PintFramework::Builder& builder, FanInConfig config);

  /// Stops and joins the daemon thread if shutdown() was not called.
  ~FanInPipeline();

  /// Routes one delivered packet (with its switch-hop count `k`) to its
  /// owning sink. Suitable as a `SimConfig::sink_tap`.
  void deliver(const Packet& packet, unsigned k);

  /// Closes out one reporting epoch on every live sink (see
  /// FanInSender::ship_epoch) and, for in-process kinds, pumps the
  /// streams into the collector.
  void ship_epoch();

  /// Fault injection: sink `i` ships its next epoch's open marker and
  /// payload frames, then dies — no epoch-close marker, stream closed.
  /// The collector must report the epoch incomplete; other sources are
  /// unaffected. A dead sink ignores later deliver()/ship_epoch() work.
  void kill_source_mid_epoch(unsigned sink);

  /// Clean shutdown: ships a final epoch, closes every stream, and waits
  /// until the collector has seen every source's end-of-stream (daemon
  /// kinds: joins the daemon thread). After this the collector is safe to
  /// read from the calling thread.
  void shutdown();

  /// Which sink host owns flows with this tuple.
  unsigned sink_of(const FiveTuple& tuple) const;

  /// The routing rule behind sink_of, exposed so out-of-process senders
  /// (forked sink processes) can partition traffic identically.
  static unsigned route_sink(const FiveTuple& tuple, FlowDefinition partition,
                             unsigned num_sinks);

  unsigned num_sinks() const { return static_cast<unsigned>(senders_.size()); }
  const ShardedSink& sink(unsigned i) const { return senders_[i]->sink(); }
  FanInCollector& collector() { return collector_; }
  const FanInCollector& collector() const { return collector_; }

  /// The daemon listener, when running a daemon kind (else nullptr).
  const CollectorDaemon* daemon() const { return daemon_.get(); }

  /// Wire-level frame id of sink `i` (stable across the pipeline's life).
  std::uint32_t source_id(unsigned i) const { return i + 1; }

  /// Merged transport accounting across every sink's stream, including
  /// sender reconnect/resync counters for daemon kinds.
  TransportCounters transport_counters() const;

  /// A SinkReport carrying the merged TransportCounters (`active` set) —
  /// the fan-in's per-epoch operational report, shaped like every other
  /// sink report so observers and dashboards reuse their plumbing.
  SinkReport epoch_report() const;

  /// Total framed bytes shipped sink -> collector so far.
  std::uint64_t bytes_shipped() const;

 private:
  void pump_source(unsigned i);
  void pump_all();

  FanInConfig config_;
  std::vector<std::unique_ptr<FanInSender>> senders_;
  std::vector<bool> eof_reported_;
  FanInCollector collector_;
  // Daemon kinds only: the listener, its driving thread, and the raw
  // sender handles (the senders_ streams, downcast once at construction)
  // for reconnect/resync counters.
  std::unique_ptr<CollectorDaemon> daemon_;
  std::thread daemon_thread_;
  std::vector<SocketSenderStream*> socket_senders_;
};

}  // namespace pint
