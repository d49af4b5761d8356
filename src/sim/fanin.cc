#include "sim/fanin.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "hash/global_hash.h"
#include "transport/sender.h"

namespace pint {

// --- FanInCollector ---------------------------------------------------------

void FanInCollector::ingest_stream(std::uint32_t source,
                                   std::span<const std::uint8_t> bytes) {
  SourceState& state = sources_[source];
  if (state.status.ended) return;  // a finished source hears nothing more
  if (state.reassembler == nullptr) {
    state.reassembler = std::make_unique<FrameReassembler>();
  }
  state.reassembler->feed(bytes);
  bytes_ingested_ += bytes.size();
  process_events(state);
}

void FanInCollector::end_stream(std::uint32_t source) {
  SourceState& state = sources_[source];
  if (state.status.ended) return;
  if (state.reassembler != nullptr) {
    state.reassembler->finish();
    process_events(state);
  }
  if (state.status.epoch_open) {
    // The source died between an epoch-open and its close marker: partial
    // data, surfaced instead of silently merged.
    ++state.status.epochs_incomplete;
    state.status.epoch_open = false;
  }
  state.status.ended = true;
  // Epoch GC: the parse buffer and per-source sequence ledger are dead
  // weight now — free them so long-running fan-ins do not accumulate
  // state for every source that ever connected.
  state.reassembler.reset();
}

void FanInCollector::disconnect_stream(std::uint32_t source) {
  SourceState& state = sources_[source];
  if (state.status.ended) return;
  if (state.reassembler != nullptr) {
    // A frame torn by the disconnect surfaces as a typed truncation
    // error before the buffer is discarded.
    state.reassembler->finish();
    process_events(state);
  }
  if (state.status.epoch_open) {
    ++state.status.epochs_incomplete;
    state.status.epoch_open = false;
  }
  ++state.status.disconnects;
  // Fresh reassembler, fresh sequence baseline: the reconnected stream's
  // first frame establishes its own ledger entry, so resuming at the next
  // epoch boundary raises no false gap against the dead connection — and
  // the dead connection's torn tail can never splice onto the new bytes.
  state.reassembler = std::make_unique<FrameReassembler>();
}

std::size_t FanInCollector::live_sources() const {
  std::size_t live = 0;
  for (const auto& [source, state] : sources_) {
    if (state.reassembler != nullptr) ++live;
  }
  return live;
}

bool FanInCollector::ingest(std::span<const std::uint8_t> bytes) {
  std::vector<StreamRecord> records;
  if (!decoder_.decode(bytes, records)) return false;
  dispatch(records, observers_);
  bytes_ingested_ += bytes.size();
  records_ingested_ += records.size();
  return true;
}

const FanInCollector::SourceStatus* FanInCollector::source_status(
    std::uint32_t source) const {
  const auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : &it->second.status;
}

std::uint64_t FanInCollector::incomplete_epochs() const {
  std::uint64_t total = 0;
  for (const auto& [source, state] : sources_) {
    total += state.status.epochs_incomplete;
  }
  return total;
}

void FanInCollector::note_error(const FrameError& error) {
  ++errors_total_;
  if (errors_.size() < kMaxLoggedErrors) errors_.push_back(error);
}

void FanInCollector::process_events(SourceState& state) {
  while (auto event = state.reassembler->next_view()) {
    if (const auto* error = std::get_if<FrameError>(&*event)) {
      note_error(*error);
      if (error->code == FrameErrorCode::kSequenceGap) {
        state.status.frames_missed += error->detail;
      }
      continue;
    }
    handle_frame(state, std::get<FrameView>(*event));
  }
}

void FanInCollector::handle_frame(SourceState& state,
                                  const FrameView& frame) {
  ++frames_ingested_;
  switch (frame.type) {
    case FrameType::kEpochOpen:
      if (state.status.epoch_open) {
        // Two opens without a close: the previous epoch never finished.
        ++state.status.epochs_incomplete;
      }
      state.status.epoch_open = true;
      state.status.current_epoch = frame.epoch;
      state.payloads_this_epoch = 0;
      break;
    case FrameType::kPayload: {
      ++state.status.payload_frames;
      ++state.payloads_this_epoch;
      // Zero-copy: the payload view (into the reassembler buffer) goes
      // straight through the decoder's streaming dispatch — observers
      // fire with no intermediate record materialization, and the
      // decoder's scratch is reused across frames and sources.
      if (!decoder_.dispatch(frame.payload, observers_,
                             &records_ingested_)) {
        // The frame checksum passed but the codec rejected the buffer —
        // an encoder bug or a malicious stream; typed, not fatal.
        ++state.status.decode_failures;
        break;
      }
      break;
    }
    case FrameType::kEpochClose:
      if (!state.status.epoch_open) {
        ++state.status.epochs_incomplete;  // close without an open
        break;
      }
      state.status.epoch_open = false;
      // The close marker says how many payload frames were shipped; fewer
      // received means frames were lost in transit.
      if (state.payloads_this_epoch == frame.close_payload_count()) {
        ++state.status.epochs_completed;
      } else {
        ++state.status.epochs_incomplete;
      }
      break;
  }
}

// --- FanInSender ------------------------------------------------------------

namespace {

// Routes one shard's observer events to that shard's encoder for the
// query's priority class, so an epoch's record streams are grouped by
// priority at encode time (no re-sort at ship time). Runs on the shard's
// worker thread only (ShardedSink::add_shard_observer).
class PriorityRoutingObserver final : public SinkObserver {
 public:
  PriorityRoutingObserver(
      std::unordered_map<std::string_view, ReportEncoder*> routes,
      ReportEncoder* fallback)
      : routes_(std::move(routes)), fallback_(fallback) {}

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    route(query).add(ctx, query, obs);
  }

  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    route(query).add_path(ctx, query, path);
  }

 private:
  ReportEncoder& route(std::string_view query) const {
    const auto it = routes_.find(query);
    return it == routes_.end() ? *fallback_ : *it->second;
  }

  // Keys view the sink's shard-0 specs; events from this tap's shard carry
  // equal-content views, and lookups hash by content.
  std::unordered_map<std::string_view, ReportEncoder*> routes_;
  ReportEncoder* fallback_;  // lowest class: unknown queries shed first
};

}  // namespace

FanInSender::FanInSender(const PintFramework::Builder& builder,
                         std::uint32_t source,
                         std::unique_ptr<ByteStream> stream, Config config)
    : config_(config), writer_(source), stream_(std::move(stream)) {
  if (stream_ == nullptr) {
    throw std::invalid_argument("FanInSender needs a stream");
  }
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_frame_records == 0) config_.max_frame_records = 1;
  sink_ = std::make_unique<ShardedSink>(builder, config_.shards);
  // One encoder per distinct QuerySpec::priority, descending — the
  // epoch ship order. All-default priorities yield a single class.
  const PintFramework& fw0 = sink_->shard(0);
  std::vector<unsigned> priorities;
  for (std::string_view name : fw0.query_names()) {
    const unsigned p = fw0.spec(name)->priority;
    if (std::find(priorities.begin(), priorities.end(), p) ==
        priorities.end()) {
      priorities.push_back(p);
    }
  }
  std::sort(priorities.rbegin(), priorities.rend());
  const unsigned shards = sink_->num_shards();
  classes_.resize(priorities.size());
  for (std::size_t c = 0; c < priorities.size(); ++c) {
    classes_[c].priority = priorities[c];
    classes_[c].shards.resize(shards);
  }
  // Neither vector resizes again, so encoder addresses are stable for the
  // routing taps' lifetime. Each shard gets its own tap over its own
  // encoders: the workers encode in parallel, with no lock per record.
  for (unsigned s = 0; s < shards; ++s) {
    std::unordered_map<std::string_view, ReportEncoder*> routes;
    for (std::string_view name : fw0.query_names()) {
      const unsigned p = fw0.spec(name)->priority;
      for (PriorityClass& cls : classes_) {
        if (cls.priority == p) {
          routes.emplace(name, &cls.shards[s].encoder);
          break;
        }
      }
    }
    taps_.push_back(std::make_unique<PriorityRoutingObserver>(
        std::move(routes), &classes_.back().shards[s].encoder));
    sink_->add_shard_observer(s, taps_.back().get());
  }
}

void FanInSender::deliver(const Packet& packet, unsigned k) {
  if (closed_) return;
  StagedBatch& b = staging_;
  if (b.size < b.packets.size()) {
    b.packets[b.size] = packet;  // copy-assign: reuses the digest storage
    b.ks[b.size] = k;
  } else {
    b.packets.push_back(packet);
    b.ks.push_back(k);
  }
  if (++b.size >= config_.batch_size) submit_staged();
}

void FanInSender::submit_staged() {
  if (staging_.size == 0) return;
  // The submitted spans must outlive the sink's flush(): park the batch on
  // the in-flight list until the epoch closes. Moving a batch keeps its
  // vectors' storage, so the spans stay valid.
  in_flight_.push_back(std::move(staging_));
  const StagedBatch& b = in_flight_.back();
  sink_->submit(std::span<const Packet>(b.packets.data(), b.size),
                std::span<const unsigned>(b.ks.data(), b.size));
  if (spare_.empty()) {
    staging_ = StagedBatch{};
  } else {
    staging_ = std::move(spare_.back());
    spare_.pop_back();
  }
  staging_.size = 0;
}

void FanInSender::flush_sink() {
  submit_staged();
  sink_->flush();
  for (StagedBatch& b : in_flight_) spare_.push_back(std::move(b));
  in_flight_.clear();
}

bool FanInSender::write_frame(std::span<const std::uint8_t> bytes,
                              bool droppable) {
  if (bytes.size() > stream_->capacity()) {
    // No retry loop could ever place this frame: it exceeds what an empty
    // pipe accepts. Reject at chunking time with the typed error the
    // streams themselves throw, before any backpressure policy runs.
    throw OversizedChunkError(bytes.size(), stream_->capacity());
  }
  for (;;) {
    if (stream_->try_write(bytes)) {
      bytes_shipped_ += bytes.size();
      return true;
    }
    if (droppable &&
        config_.backpressure == BackpressurePolicy::kDropNewest) {
      return false;
    }
    // kBlock: wait for the far end to drain. The embedding decides what
    // waiting means — the in-process pipeline pumps the collector, a
    // cross-process sender just yields while the daemon reads.
    ++blocked_waits_;
    if (on_block_) {
      on_block_();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void FanInSender::ship_epoch(bool send_close) {
  if (closed_) return;
  flush_sink();
  // Empty epochs still ship their bracket: a silent source and a dead one
  // must look different to the collector.
  write_frame(writer_.make_open(), /*droppable=*/false);
  // Classes ship highest priority first; only the last (lowest) class's
  // payloads are droppable, so under kDropNewest the stream sheds exactly
  // the query class declared least important. A single class (all-default
  // priorities) makes every payload droppable — the pre-priority behavior.
  // Within a class, shard by shard: flush_sink() returned, so every
  // worker's writes to its encoders happen-before these reads.
  for (PriorityClass& cls : classes_) {
    const bool droppable = &cls == &classes_.back();
    for (ShardEncoder& shard : cls.shards) {
      const std::vector<std::vector<std::uint8_t>> chunks =
          shard.encoder.finish_chunked(config_.max_frame_records);
      for (const std::vector<std::uint8_t>& chunk : chunks) {
        const std::vector<std::uint8_t> frame = writer_.make_payload(chunk);
        if (write_frame(frame, droppable)) {
          ++frames_shipped_;
        } else {
          writer_.payload_dropped();
        }
      }
    }
  }
  if (send_close) {
    write_frame(writer_.make_close(), /*droppable=*/false);
  }
}

void FanInSender::close() {
  if (closed_) return;
  stream_->close_write();
  // Closed means closed: a later deliver()/ship_epoch() must not write
  // into the closed stream (a socket would refuse forever, the ring would
  // feed a source the collector already saw end).
  closed_ = true;
}

// --- FanInPipeline ----------------------------------------------------------

namespace {

std::string auto_unix_path() {
  static std::atomic<unsigned> counter{0};
  return "/tmp/pint-fanin-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

}  // namespace

FanInPipeline::FanInPipeline(const PintFramework::Builder& builder,
                             FanInConfig config)
    : config_(config) {
  if (config_.num_sinks == 0) {
    throw std::invalid_argument("FanInPipeline needs at least one sink");
  }
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.max_frame_records == 0) config_.max_frame_records = 1;
  const bool daemon = is_daemon_kind(config_.stream);
  if (daemon) {
    CollectorDaemonConfig dc;
    if (config_.stream == StreamKind::kDaemonUnix) {
      dc.unix_path = auto_unix_path();
    } else {
      dc.tcp = true;  // ephemeral port, read back below
    }
    // One connection per source per pipeline run: EOF ends the source,
    // which is what shutdown() waits on.
    dc.end_stream_on_disconnect = true;
    daemon_ = std::make_unique<CollectorDaemon>(collector_, std::move(dc));
  }
  FanInSender::Config sender_cfg;
  sender_cfg.shards = config_.shards_per_sink;
  sender_cfg.batch_size = config_.batch_size;
  sender_cfg.max_frame_records = config_.max_frame_records;
  sender_cfg.backpressure = config_.backpressure;
  senders_.reserve(config_.num_sinks);
  for (unsigned i = 0; i < config_.num_sinks; ++i) {
    std::unique_ptr<ByteStream> stream;
    switch (config_.stream) {
      case StreamKind::kSpscRing:
        stream = std::make_unique<SpscRingStream>(config_.stream_capacity_bytes);
        break;
      case StreamKind::kSocketPair:
        stream =
            std::make_unique<SocketPairStream>(config_.stream_capacity_bytes);
        break;
      case StreamKind::kDaemonUnix:
      case StreamKind::kDaemonTcp: {
        SocketSenderConfig sc;
        sc.unix_path = daemon_->unix_path();
        sc.tcp_port = daemon_->tcp_port();
        sc.source = source_id(i);
        sc.buffer_hint_bytes = config_.stream_capacity_bytes;
        auto sender = std::make_unique<SocketSenderStream>(std::move(sc));
        socket_senders_.push_back(sender.get());
        stream = std::move(sender);
        break;
      }
    }
    auto node = std::make_unique<FanInSender>(builder, source_id(i),
                                              std::move(stream), sender_cfg);
    senders_.push_back(std::move(node));
  }
  eof_reported_.assign(config_.num_sinks, false);
  for (unsigned i = 0; i < config_.num_sinks; ++i) {
    if (daemon) {
      // A blocked cross-process write just waits: the daemon thread
      // drains the socket on its own schedule.
      senders_[i]->set_on_block(
          [] { std::this_thread::sleep_for(std::chrono::microseconds(50)); });
    } else {
      // In-process: blocking means draining the collector side until the
      // pipe has room.
      senders_[i]->set_on_block([this, i] { pump_source(i); });
    }
  }
  // Splitting flows across sink hosts needs the same partition feasibility
  // as splitting across shards; ShardedSink only enforces it when it has
  // more than one shard, so re-check here for the multi-sink case.
  if (config_.num_sinks > 1 &&
      !common_flow_partition(senders_[0]->sink().shard(0)).has_value()) {
    throw std::invalid_argument(
        "queries aggregate by both source and destination IP: no flow "
        "partition keeps both consistent across sinks");
  }
  if (daemon) {
    // Started last: everything above may throw, and an unjoined thread
    // must never escape the constructor.
    daemon_thread_ = std::thread([this] { daemon_->run(); });
  }
}

FanInPipeline::~FanInPipeline() {
  if (daemon_thread_.joinable()) {
    daemon_->stop();
    daemon_thread_.join();
  }
}

unsigned FanInPipeline::route_sink(const FiveTuple& tuple,
                                   FlowDefinition partition,
                                   unsigned num_sinks) {
  // Same partition rule as the shards, one level up: flows (under the
  // coarsest common definition) are homed to exactly one sink host.
  // Salted so sink and shard selection stay independent: otherwise all of
  // a sink's flows would collapse onto a few of its shards.
  const std::uint64_t key = flow_key(tuple, partition);
  return static_cast<unsigned>(mix64(key ^ 0xFA41D) % num_sinks);
}

unsigned FanInPipeline::sink_of(const FiveTuple& tuple) const {
  return route_sink(tuple, senders_[0]->sink().partition_definition(),
                    num_sinks());
}

void FanInPipeline::deliver(const Packet& packet, unsigned k) {
  senders_[sink_of(packet.tuple)]->deliver(packet, k);
}

void FanInPipeline::pump_source(unsigned i) {
  FanInSender& sender = *senders_[i];
  std::array<std::uint8_t, 4096> buf;
  for (;;) {
    const std::size_t n = sender.stream().read(buf);
    if (n == 0) break;
    collector_.ingest_stream(sender.source(),
                             std::span<const std::uint8_t>(buf.data(), n));
  }
  if (sender.stream().eof() && !eof_reported_[i]) {
    collector_.end_stream(sender.source());
    eof_reported_[i] = true;
  }
}

void FanInPipeline::pump_all() {
  if (is_daemon_kind(config_.stream)) return;  // the daemon thread drains
  for (unsigned i = 0; i < senders_.size(); ++i) pump_source(i);
}

void FanInPipeline::ship_epoch() {
  for (auto& sender : senders_) {
    if (!sender->closed()) sender->ship_epoch(/*send_close=*/true);
  }
  pump_all();
}

void FanInPipeline::kill_source_mid_epoch(unsigned sink) {
  FanInSender& sender = *senders_[sink];
  if (sender.closed()) return;
  // The source gets its epoch open and its payloads out, then vanishes
  // before the close marker — the classic mid-epoch crash.
  sender.ship_epoch(/*send_close=*/false);
  sender.close();
  if (!is_daemon_kind(config_.stream)) pump_source(sink);
}

void FanInPipeline::shutdown() {
  for (auto& sender : senders_) {
    if (sender->closed()) continue;
    sender->ship_epoch(/*send_close=*/true);
    sender->close();
  }
  if (!is_daemon_kind(config_.stream)) {
    pump_all();
    return;
  }
  // Cross-process: wait for the daemon to see every source's EOF, then
  // join its thread. The join is the happens-before that makes the
  // collector's single-threaded state readable from this thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon_->sources_ended() < senders_.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon_->stop();
  daemon_thread_.join();
}

TransportCounters FanInPipeline::transport_counters() const {
  TransportCounters t;
  t.active = true;
  for (const auto& sender : senders_) {
    t.frames_shipped += sender->frames_shipped();
    t.frames_dropped += sender->writer().frames_dropped();
    t.bytes_shipped += sender->bytes_shipped();
    t.blocked_waits += sender->blocked_waits();
  }
  for (const SocketSenderStream* s : socket_senders_) {
    t.sender_reconnects += s->reconnects();
    t.frames_resync_discarded += s->frames_resync_discarded();
  }
  return t;
}

SinkReport FanInPipeline::epoch_report() const {
  SinkReport report;
  report.transport = transport_counters();
  return report;
}

std::uint64_t FanInPipeline::bytes_shipped() const {
  std::uint64_t total = 0;
  for (const auto& sender : senders_) total += sender->bytes_shipped();
  return total;
}

}  // namespace pint
