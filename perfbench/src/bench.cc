#include "bench.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "apps/anomaly_detection.h"
#include "apps/load_analysis.h"
#include "apps/microburst.h"
#include "apps/tomography.h"
#include "transport/collector_daemon.h"
#include "transport/sender.h"
#include "transport/stream.h"

namespace perfbench {

using namespace pint;

namespace {

constexpr std::size_t kStreamBytes = 1 << 18;  // FanInConfig's default
constexpr std::size_t kPumpChunk = 16 << 10;
constexpr std::size_t kProducerBatch = 512;  // two FanInSender batches
constexpr std::uint32_t kSource = 1;         // the sink's frame source id

// The four detectors of src/apps/, attached at the collector.
struct Apps {
  LoadAnalyzer analyzer;
  QueueTomography tomography;
  AnomalyObserver anomaly{"latency"};
  MicroburstObserver microburst{"latency"};
  LoadObserver load{analyzer, "hpcc", "path"};
  TomographyObserver tomo{tomography, "latency", "path"};

  std::array<SinkObserver*, 4> all() {
    return {&anomaly, &microburst, &load, &tomo};
  }
};

}  // namespace

Bench::Bench(WorkloadSpec spec, std::uint64_t seed, bool corrupt_one_frame)
    : spec_(std::move(spec)),
      traffic_(make_traffic(spec_, seed)),
      corrupt_(corrupt_one_frame),
      network_(traffic_.builder.build_or_throw()),
      tx_(traffic_.packets),
      epoch_end_ns_(traffic_.epochs),
      wire_(kProducerBatch),
      rx_(kProducerBatch),
      pump_buf_(kPumpChunk) {
  const std::size_t n = traffic_.packets.size();
  hop_prefix_.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    hop_prefix_[p + 1] = hop_prefix_[p] + traffic_.hops_of(p);
  }
  // The packets as the sink receives them: encoded at every switch,
  // packed to the wire and unpacked.
  rx_all_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    Packet packet = traffic_.packets[p];
    encode_at_switches(*network_, packet,
                       traffic_.flow_paths[traffic_.flow_of[p]]);
    rx_all_[p].id = packet.id;
    rx_all_[p].tuple = packet.tuple;
    network_->unpack_wire(network_->pack_wire(packet), rx_all_[p]);
  }
  if (spec_.memory_ceiling_bytes > 0) return;  // bounded: see verify_capture
  // The monolithic reference: one framework sees every packet in order.
  const auto reference = traffic_.builder.build_or_throw();
  CaptureObserver capture;
  reference->add_observer(&capture);
  SinkReport report;
  for (std::size_t p = 0; p < n; ++p) {
    reference->at_sink(rx_all_[p], traffic_.hops_of(p), report);
  }
  ref_canonical_ = capture.canonical_bytes();
  ref_hashes_ = capture.record_hashes();
  expected_ = capture.epoch_counts(traffic_);
  expected_total_ = capture.size();
}

namespace {

void read_collector(const FanInCollector& collector, RepResult& r) {
  r.frame_errors = collector.errors_total();
  r.incomplete_epochs = collector.incomplete_epochs();
  const FanInCollector::SourceStatus* status =
      collector.source_status(kSource);
  r.sources_ended = status != nullptr && status->ended;
  if (status == nullptr) return;
  r.epochs_completed = status->epochs_completed;
  r.decode_failures = status->decode_failures;
}

void read_sender(const FanInSender& sender, RepResult& r) {
  r.frames_shipped += sender.frames_shipped();
  r.frames_dropped += sender.writer().frames_dropped();
  r.bytes_shipped += sender.bytes_shipped();
  r.blocked_waits += sender.blocked_waits();
  const MemoryReport memory = sender.sink().memory_report();
  r.evictions += memory.total.evictions;
  r.store_used_bytes += memory.total.used_bytes;
}

void read_counter(const CountingObserver& counter, RepResult& r) {
  r.received = counter.received();
  r.flows_decoded = counter.flows_decoded();
  r.bogus_records = counter.bogus();
  r.t_last_ns = counter.last_record_ns();
}

}  // namespace

RepResult Bench::run_rep(bool traced, CaptureObserver* capture,
                         std::vector<WeightedSample>* freshness,
                         bool over_daemon) {
  producer_.enable(traced);
  collector_.enable(traced && over_daemon);
  FanInCollector collector;
  CountingObserver counter(traffic_, epoch_end_ns_, base_ns_, freshness);
  collector.add_observer(&counter);
  if (capture != nullptr) collector.add_observer(capture);
  // Over the daemon, the four detectors run at the collector; traced runs
  // time each one's callbacks.
  Apps apps;
  std::int64_t apps_busy_ns = 0;
  std::vector<std::unique_ptr<TimedObserver>> timed;
  if (over_daemon) {
    for (SinkObserver* app : apps.all()) {
      if (traced) {
        timed.push_back(std::make_unique<TimedObserver>(*app, apps_busy_ns));
        collector.add_observer(timed.back().get());
      } else {
        collector.add_observer(app);
      }
    }
  }
  TimingIngest ingest(collector, counter, over_daemon ? collector_ : producer_,
                      traced && over_daemon ? &apps_busy_ns : nullptr);

  // Over the daemon: a CollectorDaemon on localhost TCP, driven by its own
  // thread, which is joined before the daemon is destroyed on every path.
  std::unique_ptr<CollectorDaemon> daemon;
  struct LoopThread {
    CollectorDaemon* daemon = nullptr;
    std::thread thread;
    ~LoopThread() {
      if (thread.joinable()) {
        daemon->stop();
        thread.join();
      }
    }
  } loop;
  if (over_daemon) {
    CollectorDaemonConfig daemon_config;
    daemon_config.tcp = true;
    daemon_config.end_stream_on_disconnect = true;
    daemon = std::make_unique<CollectorDaemon>(ingest, daemon_config);
    loop.daemon = daemon.get();
    loop.thread = std::thread([d = daemon.get()] { d->run(); });
  }

  // The sink ships over a socket to the daemon, or over an in-memory ring
  // that this thread pumps into the collector.
  SocketSenderStream* socket = nullptr;
  ByteStream* ring = nullptr;
  std::unique_ptr<ByteStream> stream;
  if (over_daemon) {
    SocketSenderConfig socket_config;
    socket_config.tcp_port = daemon->tcp_port();
    socket_config.source = kSource;
    auto socket_stream = std::make_unique<SocketSenderStream>(socket_config);
    if (!socket_stream->wait_connected(std::chrono::seconds(5))) {
      throw std::runtime_error("sender could not reach the collector daemon");
    }
    socket = socket_stream.get();
    stream = std::move(socket_stream);
  } else {
    stream = std::make_unique<SpscRingStream>(kStreamBytes);
    ring = stream.get();
  }
  FanInSender::Config config;
  config.shards = spec_.shards;
  // The pass that defines a bounded workload's reference hash ships clean,
  // so a corrupted frame in any later pass breaks identity.
  const bool corrupt = corrupt_ && (spec_.memory_ceiling_bytes == 0 ||
                                    capture == nullptr || have_ref_hash_);
  FanInSender sender(
      traffic_.builder, kSource,
      std::make_unique<TimingStream>(std::move(stream), producer_, corrupt),
      config);
  const auto pump = [&] {
    for (;;) {
      const std::size_t n = ring->read(pump_buf_);
      if (n == 0) return;
      ingest.ingest_stream(
          kSource, std::span<const std::uint8_t>(pump_buf_.data(), n));
    }
  };
  // In process, a blocked write drains the collector side; over the
  // daemon, the sender's default short sleep lets the daemon drain.
  if (ring != nullptr) sender.set_on_block(pump);

  RepResult r;
  const std::int64_t t_first = now_ns();
  base_ns_.store(t_first, std::memory_order_release);
  const int root = producer_.open("rep", 0);
  r.produce_ms.reserve(traffic_.epochs);
  for (unsigned e = 0; e < traffic_.epochs; ++e) {
    const std::int64_t epoch_start = now_ns();
    const std::size_t lo = traffic_.epoch_begin[e];
    const std::size_t hi = traffic_.epoch_begin[e + 1];
    // Batches, so the shard workers decode one batch while this thread
    // encodes the next.
    for (std::size_t b_lo = lo; b_lo < hi; b_lo += kProducerBatch) {
      const std::size_t b_hi = std::min(hi, b_lo + kProducerBatch);
      {
        ScopedSpan span(producer_, "pint.at_switch", e,
                        hop_prefix_[b_hi] - hop_prefix_[b_lo]);
        for (std::size_t p = b_lo; p < b_hi; ++p) {
          encode_at_switches(*network_, tx_[p],
                             traffic_.flow_paths[traffic_.flow_of[p]]);
        }
      }
      {
        ScopedSpan span(producer_, "pint.wire", e, b_hi - b_lo);
        for (std::size_t p = b_lo; p < b_hi; ++p) {
          std::vector<std::uint8_t>& wire = wire_[p - b_lo];
          wire = network_->pack_wire(tx_[p]);
          r.wire_bytes += wire.size();
          Packet& packet = rx_[p - b_lo];
          packet.id = tx_[p].id;
          packet.tuple = tx_[p].tuple;
          network_->unpack_wire(wire, packet);
        }
      }
      {
        ScopedSpan span(producer_, "pint.sink.submit", e, b_hi - b_lo);
        for (std::size_t p = b_lo; p < b_hi; ++p) {
          sender.deliver(rx_[p - b_lo], traffic_.hops_of(p));
        }
      }
    }
    {
      ScopedSpan span(producer_, "pint.sink.flush", e);
      sender.sink().flush();
    }
    // The epoch ends at the ship_epoch call: freshness is the report's
    // way from the sink to the collector, not the shards' drain.
    const std::int64_t epoch_end = now_ns();
    r.produce_ms.push_back(static_cast<double>(epoch_end - epoch_start) / 1e6);
    epoch_end_ns_[e].store(epoch_end - t_first, std::memory_order_release);
    {
      ScopedSpan span(producer_, "pint.ship", e);
      sender.ship_epoch();
    }
    if (ring != nullptr) {
      ScopedSpan span(producer_, "sim.fanin.pump", e);
      pump();
    }
  }
  producer_.close(root, traffic_.packets.size());
  sender.close();
  if (ring != nullptr) {
    pump();
    if (ring->eof()) ingest.end_stream(kSource);
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon->sources_ended() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon->stop();
    loop.thread.join();  // the happens-before for reading the collector
  }

  r.t_first_ns = t_first;
  read_counter(counter, r);
  read_collector(collector, r);
  read_sender(sender, r);
  if (socket != nullptr) {
    r.reconnects = socket->reconnects();
    r.resync_discarded = socket->frames_resync_discarded();
  }
  return r;
}

std::uint64_t Bench::accounting_failures(const RepResult& r) const {
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < expected_.size(); ++s) {
    if (r.received[s] != expected_[s]) {
      failed += std::max(r.received[s], expected_[s]);
    }
  }
  if (r.epochs_completed < traffic_.epochs) {
    failed += traffic_.epochs - r.epochs_completed;
  }
  failed += r.bogus_records + r.frame_errors + r.decode_failures;
  if (!r.sources_ended) ++failed;
  return failed;
}

std::uint64_t Bench::verify_capture(const CaptureObserver& capture) {
  if (spec_.memory_ceiling_bytes > 0) {
    // Bounded: eviction makes the output differ from a monolithic sink by
    // design, but it is deterministic, so every capture must hash like the
    // first (which defines the expected per-epoch record counts too).
    const std::uint64_t hash = fnv1a(capture.canonical_bytes());
    if (!have_ref_hash_) {
      have_ref_hash_ = true;
      ref_hash_ = hash;
      ref_hashes_ = capture.record_hashes();
      expected_ = capture.epoch_counts(traffic_);
      expected_total_ = capture.size();
      return 0;
    }
    if (hash == ref_hash_) return 0;
  } else if (capture.canonical_bytes() == ref_canonical_) {
    return 0;
  }
  return std::max<std::uint64_t>(
      1, multiset_difference(capture.record_hashes(), ref_hashes_));
}

}  // namespace perfbench
