// Multi-sink fan-in over the framed streaming transport.
//
// Load-bearing checks: (1) over both stream implementations (SPSC ring and
// unix socketpair), at 1/2/4 sinks x 1/2/4 shards, the collector's merged
// record stream is byte-identical to the monolithic sink's when no frames
// are dropped, and each flow's records arrive in monolithic order; (2)
// drop-newest backpressure reports exact dropped-frame counts (writer
// counter == receiver sequence gaps == SinkReport TransportCounters), at
// one shard and at several; (3) a source killed mid-epoch is reported as an
// incomplete epoch while the surviving sources keep decoding; (4) the
// original end-to-end simulator path still matches the monolithic sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/fanin.h"
#include "sim/simulator.h"
#include "topology/fat_tree.h"

namespace pint {
namespace {

constexpr unsigned kHops = 5;
constexpr std::size_t kFlows = 120;
constexpr std::size_t kPacketsPerFlow = 24;

struct CountingObserver : SinkObserver {
  std::uint64_t observations = 0;
  std::uint64_t paths = 0;

  void on_observation(const SinkContext&, std::string_view,
                      const Observation&) override {
    ++observations;
  }
  void on_path_decoded(const SinkContext&, std::string_view,
                       const std::vector<SwitchId>&) override {
    ++paths;
  }
};

// Captures the full record stream so two sides can be compared exactly.
struct RecordingObserver : SinkObserver {
  struct Rec {
    SinkContext ctx;
    std::string query;
    bool path_event = false;
    Observation obs{};
    std::vector<SwitchId> path;
  };
  std::vector<Rec> records;

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    records.push_back({ctx, std::string(query), false, obs, {}});
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    records.push_back({ctx, std::string(query), true, {}, path});
  }
};

// Canonical bytes of a record stream: stable-sorted by packet id (each
// packet's records come from exactly one sink, in order, so this is a
// total order on both the monolithic and the fan-in stream), then
// re-encoded with the report codec.
std::vector<std::uint8_t> canonical_bytes(
    std::vector<RecordingObserver::Rec> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) {
                     return a.ctx.packet_id < b.ctx.packet_id;
                   });
  ReportEncoder enc;
  for (const auto& rec : records) {
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.obs);
    }
  }
  return enc.finish();
}

// Each flow's records in arrival order, encoded per flow (flow index from
// the packet id, as make_encoded_traffic numbers them). Sharding and
// fan-in may interleave flows differently, but a flow lives on one
// (sink, shard), so its own record sequence must match the monolithic
// sink's exactly — no sort applied.
std::map<std::size_t, std::vector<std::uint8_t>> per_flow_streams(
    const std::vector<RecordingObserver::Rec>& records, std::size_t flows) {
  std::map<std::size_t, ReportEncoder> encoders;
  for (const auto& rec : records) {
    ReportEncoder& enc = encoders[(rec.ctx.packet_id - 1) % flows];
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.obs);
    }
  }
  std::map<std::size_t, std::vector<std::uint8_t>> out;
  for (auto& [flow, enc] : encoders) out.emplace(flow, enc.finish());
  return out;
}

PintFramework::Builder three_query_builder() {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = 1e6;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 32; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xFA41)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    15.0 / 16.0, latency_tuning))
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0 / 16.0,
          cc_tuning));
  return builder;
}

FiveTuple tuple_of_flow(std::size_t flow) {
  FiveTuple t;
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow % 13);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow % 17);
  t.src_port = static_cast<std::uint16_t>(1000 + flow);
  t.dst_port = 443;
  return t;
}

std::vector<Packet> make_encoded_traffic() {
  const auto network = three_query_builder().build_or_throw();
  std::vector<Packet> packets;
  packets.reserve(kFlows * kPacketsPerFlow);
  PacketId next_id = 1;
  for (std::size_t j = 0; j < kPacketsPerFlow; ++j) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      Packet p;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      packets.push_back(std::move(p));
    }
  }
  for (Packet& p : packets) {
    const std::size_t f = (p.id - 1) % kFlows;
    for (HopIndex i = 1; i <= kHops; ++i) {
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.01 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  return packets;
}

// Mirrors Simulator::framework_flow_key's tuple synthesis so the test can
// address the same flow in the fan-in pipeline.
FiveTuple sim_flow_tuple(NodeId src, NodeId dst, std::uint32_t flow_id) {
  FiveTuple tuple;
  tuple.src_ip = src;
  tuple.dst_ip = dst;
  tuple.src_port = static_cast<std::uint16_t>(flow_id & 0xFFFF);
  tuple.dst_port = static_cast<std::uint16_t>(flow_id >> 16);
  return tuple;
}

// The acceptance matrix: both stream implementations, 1/2/4 sources x
// 1/2/4 shards, several epochs — merged records must be byte-identical to
// the monolithic sink's stream whenever nothing is dropped.
TEST(FanIn, ByteIdenticalToMonolithicAcrossStreamsSinksShards) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto mono = builder.build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  mono->at_sink(std::span<const Packet>(packets), kHops);
  const std::vector<std::uint8_t> mono_bytes =
      canonical_bytes(mono_records.records);
  ASSERT_FALSE(mono_bytes.empty());
  const auto mono_flows = per_flow_streams(mono_records.records, kFlows);
  ASSERT_EQ(mono_flows.size(), kFlows);

  for (const StreamKind stream :
       {StreamKind::kSpscRing, StreamKind::kSocketPair}) {
    for (const unsigned sinks : {1u, 2u, 4u}) {
      for (const unsigned shards : {1u, 2u, 4u}) {
        FanInConfig cfg;
        cfg.num_sinks = sinks;
        cfg.shards_per_sink = shards;
        cfg.batch_size = 64;
        cfg.stream = stream;
        cfg.max_frame_records = 128;  // several payload frames per epoch
        FanInPipeline pipeline(builder, cfg);
        RecordingObserver central;
        pipeline.collector().add_observer(&central);

        // Three epochs plus the shutdown flush.
        const std::size_t third = packets.size() / 3;
        for (std::size_t i = 0; i < packets.size(); ++i) {
          pipeline.deliver(packets[i], kHops);
          if (i + 1 == third || i + 1 == 2 * third) pipeline.ship_epoch();
        }
        pipeline.shutdown();

        const std::string label = std::string("stream=") +
                                  (stream == StreamKind::kSpscRing
                                       ? "ring"
                                       : "socketpair") +
                                  " sinks=" + std::to_string(sinks) +
                                  " shards=" + std::to_string(shards);
        // Lossless transport: nothing dropped, nothing missed, every
        // epoch closed complete.
        EXPECT_EQ(pipeline.transport_counters().frames_dropped, 0u) << label;
        EXPECT_EQ(pipeline.collector().errors_total(), 0u) << label;
        EXPECT_EQ(pipeline.collector().incomplete_epochs(), 0u) << label;
        for (unsigned s = 0; s < sinks; ++s) {
          const auto* status =
              pipeline.collector().source_status(pipeline.source_id(s));
          ASSERT_NE(status, nullptr) << label;
          EXPECT_EQ(status->epochs_completed, 3u) << label << " sink " << s;
          EXPECT_TRUE(status->ended) << label;
        }
        // Per-flow order first, on the stream as it arrived...
        EXPECT_TRUE(per_flow_streams(central.records, kFlows) == mono_flows)
            << label << ": a flow's records arrived out of monolithic order";
        // ...then the whole record set, canonically sorted.
        EXPECT_EQ(canonical_bytes(central.records), mono_bytes) << label;
      }
    }
  }
}

// A bounded sink's output depends on the order packets reach its store:
// eviction picks victims by recency. A one-shard fan-in sink must process
// packets in arrival order, whatever their path lengths, so that under a
// memory ceiling that forces evictions its record stream — order
// included — is exactly the monolithic bounded framework's.
TEST(FanIn, OneShardBoundedSinkKeepsArrivalOrderAcrossPathLengths) {
  constexpr std::size_t kMixedFlows = 90;
  constexpr std::size_t kMixedPackets = 20;
  const auto hops_of = [](std::size_t flow) {
    return 2 + static_cast<unsigned>(flow % 6);  // six lengths, 2..7
  };
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = 7;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 32; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xB0B0)
      .switch_universe(std::move(universe))
      .memory_ceiling_bytes(6 << 10)
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query(
          "latency", std::string(extractor::kHopLatency), 8, 15.0 / 16.0));

  // Flows interleaved round-robin, each on its own fixed path.
  const auto network = builder.build_or_throw();
  std::vector<Packet> packets;
  std::vector<unsigned> ks;
  PacketId next_id = 1;
  for (std::size_t j = 0; j < kMixedPackets; ++j) {
    for (std::size_t f = 0; f < kMixedFlows; ++f) {
      Packet p;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      for (HopIndex i = 1; i <= hops_of(f); ++i) {
        SwitchView view(static_cast<SwitchId>(f % 8 + i));
        view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
        network->at_switch(p, i, view);
      }
      packets.push_back(std::move(p));
      ks.push_back(hops_of(f));
    }
  }

  const auto mono = builder.build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    mono->at_sink(packets[i], ks[i]);
  }
  ASSERT_GT(mono->memory_report().total.evictions, 0u)
      << "the ceiling must force evictions";

  FanInConfig cfg;
  cfg.num_sinks = 1;
  cfg.shards_per_sink = 1;
  cfg.batch_size = 48;
  cfg.max_frame_records = 128;
  FanInPipeline pipeline(builder, cfg);
  RecordingObserver central;
  pipeline.collector().add_observer(&central);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    pipeline.deliver(packets[i], ks[i]);
    if ((i + 1) % 500 == 0) pipeline.ship_epoch();
  }
  pipeline.shutdown();
  EXPECT_EQ(pipeline.collector().errors_total(), 0u);
  EXPECT_EQ(pipeline.sink(0).memory_report().total.evictions,
            mono->memory_report().total.evictions);

  // The exact record stream, in arrival order: no canonical sort.
  const auto in_order = [](const std::vector<RecordingObserver::Rec>& recs) {
    ReportEncoder enc;
    for (const auto& rec : recs) {
      if (rec.path_event) {
        enc.add_path(rec.ctx, rec.query, rec.path);
      } else {
        enc.add(rec.ctx, rec.query, rec.obs);
      }
    }
    return enc.finish();
  };
  ASSERT_EQ(central.records.size(), mono_records.records.size());
  EXPECT_EQ(in_order(central.records), in_order(mono_records.records));
}

// Drop-newest backpressure: a deliberately tiny ring forces drops, and the
// dropped-frame count must be exact and visible everywhere it is promised:
// the writer-side TransportCounters (via SinkReport), the receiver-side
// sequence gaps, and the epoch accounting (epochs still complete, because
// the close marker counts only shipped frames).
TEST(FanIn, DropNewestReportsExactDropCounts) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  // One shard ships one record stream per epoch; three ship one stream per
  // shard, back to back under the same source — the exact accounting must
  // hold for both layouts.
  for (const unsigned shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FanInConfig cfg;
    cfg.num_sinks = 2;
    cfg.shards_per_sink = shards;
    cfg.batch_size = 64;
    cfg.stream = StreamKind::kSpscRing;
    cfg.backpressure = BackpressurePolicy::kDropNewest;
    cfg.stream_capacity_bytes = 8192;  // holds only a few frames
    cfg.max_frame_records = 64;
    FanInPipeline pipeline(builder, cfg);
    CountingObserver central;
    pipeline.collector().add_observer(&central);

    for (const Packet& packet : packets) pipeline.deliver(packet, kHops);
    pipeline.ship_epoch();
    pipeline.shutdown();

    const SinkReport report = pipeline.epoch_report();
    ASSERT_TRUE(report.transport.active);
    EXPECT_GT(report.transport.frames_dropped, 0u)
        << "config did not force drops; shrink the ring";
    // Writer-side drop count == receiver-side missing-frame count.
    std::uint64_t missed = 0;
    std::uint64_t payload_frames = 0;
    for (unsigned s = 0; s < pipeline.num_sinks(); ++s) {
      const auto* status =
          pipeline.collector().source_status(pipeline.source_id(s));
      ASSERT_NE(status, nullptr);
      missed += status->frames_missed;
      payload_frames += status->payload_frames;
      // Deliberate drops are reconciled by the close marker: epochs close
      // as complete, with the loss explicit in the counters instead.
      EXPECT_EQ(status->epochs_incomplete, 0u) << "sink " << s;
    }
    EXPECT_EQ(missed, report.transport.frames_dropped);
    EXPECT_EQ(payload_frames, report.transport.frames_shipped);
    // What did arrive decoded fine (partial delivery, not corruption): the
    // only frame-layer events are the sequence gaps the drops created.
    EXPECT_GT(central.observations, 0u);
    EXPECT_GT(pipeline.collector().errors_total(), 0u);
    for (const FrameError& error : pipeline.collector().errors()) {
      EXPECT_EQ(error.code, FrameErrorCode::kSequenceGap);
    }
  }
}

// Priority classes over the fan-in transport. A builder with distinct
// QuerySpec::priority values ships one record stream per class, highest
// first, and only the lowest class's payload frames are droppable: under a
// starved drop-newest ring, high-priority queries arrive loss-free while
// every dropped record is accounted against the lowest class.
TEST(FanIn, PriorityClassesShedOnlyLowestClassUnderDrops) {
  const std::vector<Packet> packets = make_encoded_traffic();

  // hpcc outranks path and latency (which keep the default priority 1).
  // The droppable class must carry real volume to pressure the ring, so
  // the two high-rate queries are the ones left at the minimum priority.
  const auto prioritized_builder = [] {
    PathTracingConfig path_tuning;
    path_tuning.bits = 8;
    path_tuning.instances = 1;
    path_tuning.d = kHops;
    DynamicAggregationConfig latency_tuning;
    latency_tuning.max_value = 1e6;
    PerPacketConfig cc_tuning;
    cc_tuning.eps = 0.025;
    cc_tuning.max_value = 1e6;
    std::vector<std::uint64_t> universe;
    for (std::uint64_t s = 1; s <= 32; ++s) universe.push_back(s);
    auto cc_q = make_perpacket_query("hpcc",
                                     std::string(extractor::kLinkUtilization),
                                     8, 1.0 / 16.0, cc_tuning);
    cc_q.priority = 2;
    PintFramework::Builder builder;
    builder.global_bit_budget(16)
        .seed(0xFA41)
        .switch_universe(std::move(universe))
        .add_query(make_path_query("path", 8, 1.0, path_tuning))
        .add_query(make_dynamic_query("latency",
                                      std::string(extractor::kHopLatency), 8,
                                      15.0 / 16.0, latency_tuning))
        .add_query(cc_q);
    return builder;
  }();

  // Monolithic ground truth per query (priorities do not change what a
  // local sink observes, only what the transport may shed).
  const auto mono = prioritized_builder.build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  mono->at_sink(std::span<const Packet>(packets), kHops);
  std::map<std::string, std::size_t> mono_counts;
  for (const auto& rec : mono_records.records) ++mono_counts[rec.query];
  ASSERT_GT(mono_counts["hpcc"], 0u);

  // Lossless transport first: a multi-class epoch stream still merges to
  // the exact monolithic record set. Classes regroup records *within* a
  // packet (the high class ships first), so the comparison canonicalizes
  // on (packet, query) — under that order the streams are byte-identical.
  const auto per_query_bytes = [](std::vector<RecordingObserver::Rec> recs) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const auto& a, const auto& b) {
                       if (a.ctx.packet_id != b.ctx.packet_id) {
                         return a.ctx.packet_id < b.ctx.packet_id;
                       }
                       return a.query < b.query;
                     });
    ReportEncoder enc;
    for (const auto& rec : recs) {
      if (rec.path_event) {
        enc.add_path(rec.ctx, rec.query, rec.path);
      } else {
        enc.add(rec.ctx, rec.query, rec.obs);
      }
    }
    return enc.finish();
  };
  // Both checks at one shard and at three: class-major, shard-minor
  // shipping must still merge losslessly and shed only the lowest class.
  for (const unsigned shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    {
      FanInConfig cfg;
      cfg.num_sinks = 2;
      cfg.shards_per_sink = shards;
      cfg.batch_size = 64;
      cfg.stream = StreamKind::kSpscRing;
      cfg.max_frame_records = 64;
      FanInPipeline pipeline(prioritized_builder, cfg);
      RecordingObserver central;
      pipeline.collector().add_observer(&central);
      for (const Packet& packet : packets) pipeline.deliver(packet, kHops);
      pipeline.ship_epoch();
      pipeline.shutdown();
      EXPECT_EQ(pipeline.transport_counters().frames_dropped, 0u);
      EXPECT_EQ(per_query_bytes(central.records),
                per_query_bytes(mono_records.records));
    }

    // Starved ring: drops are forced, and they land exclusively on the
    // lowest class.
    {
      FanInConfig cfg;
      cfg.num_sinks = 2;
      cfg.shards_per_sink = shards;
      cfg.batch_size = 64;
      cfg.stream = StreamKind::kSpscRing;
      cfg.backpressure = BackpressurePolicy::kDropNewest;
      cfg.stream_capacity_bytes = 8192;  // holds only a few frames
      cfg.max_frame_records = 64;
      FanInPipeline pipeline(prioritized_builder, cfg);
      RecordingObserver central;
      pipeline.collector().add_observer(&central);
      for (const Packet& packet : packets) pipeline.deliver(packet, kHops);
      pipeline.ship_epoch();
      pipeline.shutdown();

      const SinkReport report = pipeline.epoch_report();
      ASSERT_TRUE(report.transport.active);
      EXPECT_GT(report.transport.frames_dropped, 0u)
          << "config did not force drops; shrink the ring";
      std::map<std::string, std::size_t> got_counts;
      for (const auto& rec : central.records) ++got_counts[rec.query];
      // The high class is loss-free even while the ring sheds...
      EXPECT_EQ(got_counts["hpcc"], mono_counts["hpcc"]);
      // ...so every missing record belongs to the droppable (minimum
      // priority) class.
      EXPECT_LT(got_counts["path"] + got_counts["latency"],
                mono_counts["path"] + mono_counts["latency"]);
    }
  }
}

// Fault injection: one source dies between its epoch-open and epoch-close.
// The collector must report that epoch incomplete, and the surviving
// source's flows must keep decoding normally.
TEST(FanIn, KilledSourceMidEpochIsReportedAndOthersKeepDecoding) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  FanInConfig cfg;
  cfg.num_sinks = 2;
  cfg.shards_per_sink = 2;
  cfg.batch_size = 32;
  FanInPipeline pipeline(builder, cfg);
  RecordingObserver central;
  pipeline.collector().add_observer(&central);

  // Epoch 1 completes normally for both sources.
  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pipeline.deliver(packets[i], kHops);
  pipeline.ship_epoch();
  const std::size_t records_after_epoch1 = central.records.size();
  ASSERT_GT(records_after_epoch1, 0u);

  // Source 0 dies mid-epoch 2; the rest of the traffic keeps flowing.
  const unsigned dead = 0;
  const unsigned alive = 1;
  pipeline.kill_source_mid_epoch(dead);
  for (std::size_t i = half; i < packets.size(); ++i) {
    pipeline.deliver(packets[i], kHops);
  }
  pipeline.ship_epoch();
  pipeline.shutdown();

  const auto* dead_status =
      pipeline.collector().source_status(pipeline.source_id(dead));
  ASSERT_NE(dead_status, nullptr);
  EXPECT_EQ(dead_status->epochs_completed, 1u);
  EXPECT_EQ(dead_status->epochs_incomplete, 1u);  // the one it died inside
  EXPECT_TRUE(dead_status->ended);
  EXPECT_EQ(pipeline.collector().incomplete_epochs(), 1u);

  const auto* alive_status =
      pipeline.collector().source_status(pipeline.source_id(alive));
  ASSERT_NE(alive_status, nullptr);
  EXPECT_EQ(alive_status->epochs_incomplete, 0u);
  EXPECT_EQ(alive_status->epochs_completed, 3u);  // 2 epochs + shutdown
  EXPECT_TRUE(alive_status->ended);

  // The survivor's flows decoded end to end: its post-kill records
  // arrived, and its merged inference matches a monolithic sink fed the
  // same packets.
  EXPECT_GT(central.records.size(), records_after_epoch1);
  const auto mono = builder.build_or_throw();
  mono->at_sink(std::span<const Packet>(packets), kHops);
  std::size_t surviving_flows = 0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FiveTuple tuple = tuple_of_flow(f);
    if (pipeline.sink_of(tuple) != alive) continue;
    ++surviving_flows;
    const std::uint64_t fkey = mono->flow_key_for("path", tuple);
    EXPECT_EQ(pipeline.sink(alive).flow_path("path", tuple),
              mono->flow_path("path", fkey));
    EXPECT_EQ(pipeline.sink(alive).path_progress("path", tuple),
              mono->path_progress("path", fkey));
  }
  EXPECT_GT(surviving_flows, 0u);
}

TEST(FanIn, MatchesMonolithicSinkOnSimulatedTraffic) {
  FatTree ft = make_fat_tree(4);
  std::vector<bool> is_host(ft.graph.num_nodes(), false);
  for (NodeId h : ft.nodes.hosts) is_host[h] = true;

  SimConfig cfg;
  cfg.telemetry = TelemetryMode::kPint;
  cfg.pint_full = true;
  cfg.pint_bit_budget = 16;
  cfg.pint_frequency = 1.0 / 16.0;
  cfg.transport = TransportKind::kHpcc;
  cfg.hpcc.base_rtt = 20 * kMicro;
  cfg.seed = 5;

  // The fan-in builds its sink replicas from the simulator's own builder,
  // so decoding is bit-for-bit the monolithic sink's.
  FanInConfig fan_cfg;
  fan_cfg.num_sinks = 2;
  fan_cfg.shards_per_sink = 2;
  fan_cfg.batch_size = 64;
  FanInPipeline pipeline(
      Simulator::full_framework_builder(cfg, ft.graph, is_host), fan_cfg);
  CountingObserver central;
  pipeline.collector().add_observer(&central);

  std::uint64_t tapped = 0;
  cfg.sink_tap = [&](const Packet& packet, unsigned switch_hops) {
    ++tapped;
    pipeline.deliver(packet, switch_hops);
  };

  Simulator sim(ft.graph, is_host, cfg);
  struct FlowRef {
    NodeId src, dst;
    std::uint32_t id;
  };
  std::vector<FlowRef> flows;
  // A mix of cross-pod (5 switch hops) and same-pod flows.
  const auto& hosts = ft.nodes.hosts;
  for (std::size_t i = 0; i < 4; ++i) {
    const NodeId src = hosts[i];
    const NodeId dst = hosts[hosts.size() - 1 - i];
    flows.push_back({src, dst, sim.add_flow(src, dst, 1'500'000, 0)});
  }
  sim.run_until(1 * kSecond);
  pipeline.ship_epoch();

  ASSERT_GT(tapped, 0u);
  EXPECT_GT(pipeline.bytes_shipped(), 0u);
  EXPECT_GT(central.observations, 0u);
  EXPECT_GT(central.paths, 0u);
  EXPECT_EQ(pipeline.collector().errors_total(), 0u);
  EXPECT_EQ(pipeline.transport_counters().frames_dropped, 0u);

  // Every sink host processed its share; nothing was lost or duplicated.
  std::uint64_t processed = 0;
  for (unsigned s = 0; s < pipeline.num_sinks(); ++s) {
    processed += pipeline.sink(s).packets_processed();
  }
  EXPECT_EQ(processed, tapped);

  const PintFramework* mono = sim.framework();
  ASSERT_NE(mono, nullptr);
  for (const FlowRef& flow : flows) {
    ASSERT_TRUE(sim.flow_stats()[flow.id].done) << "flow " << flow.id;
    const FiveTuple tuple = sim_flow_tuple(flow.src, flow.dst, flow.id);
    const std::uint64_t fkey = sim.framework_flow_key(flow.id);

    // Path tracing: identical decode state.
    EXPECT_EQ(pipeline.sink(pipeline.sink_of(tuple))
                  .path_progress("path", tuple),
              mono->path_progress("path", fkey));
    const auto mono_path = mono->flow_path(fkey);
    ASSERT_TRUE(mono_path.has_value());
    EXPECT_EQ(pipeline.sink(pipeline.sink_of(tuple)).flow_path("path", tuple),
              mono_path);

    // Latency quantiles: identical recorder state at every hop.
    const unsigned k = sim.flow_stats()[flow.id].path_hops;
    for (HopIndex hop = 1; hop <= k; ++hop) {
      EXPECT_EQ(pipeline.sink(pipeline.sink_of(tuple))
                    .latency_quantile("latency", tuple, hop, 0.5),
                mono->latency_quantile(fkey, hop, 0.5))
          << "hop " << hop;
    }
  }
}

// A sender torn down mid-epoch (an early exit, an unwinding exception)
// still has batches queued and in flight on its shard workers. They must
// be discarded or finished before the staged packets and the encoders
// they point into are freed (ASan flags the use-after-free otherwise).
TEST(FanIn, SenderDestroyedMidEpochFreesNothingItsWorkersStillUse) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();
  for (int round = 0; round < 20; ++round) {
    FanInSender::Config cfg;
    cfg.shards = 4;
    cfg.batch_size = 16;
    FanInSender sender(builder, 1, std::make_unique<SpscRingStream>(1 << 16),
                       cfg);
    for (const Packet& p : packets) sender.deliver(p, kHops);
    // No ship_epoch(): the sender goes out of scope with work in flight.
  }
}

TEST(FanIn, ValidatesConfiguration) {
  std::vector<std::uint64_t> universe{1, 2, 3};
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0));
  EXPECT_THROW(FanInPipeline(builder, FanInConfig{.num_sinks = 0}),
               std::invalid_argument);
}

TEST(FanIn, RejectsUnpartitionableMixAcrossSinks) {
  // Source- + destination-keyed queries cannot be split across sink hosts
  // consistently, even with one shard per sink (where ShardedSink itself
  // has nothing to enforce).
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec by_source = make_dynamic_query(
      "per_source", std::string(extractor::kHopLatency), 8, 0.5, tuning);
  by_source.query.flow_definition = FlowDefinition::kSourceIp;
  QuerySpec by_dest = make_dynamic_query(
      "per_dest", std::string(extractor::kQueueOccupancy), 8, 0.5, tuning);
  by_dest.query.flow_definition = FlowDefinition::kDestinationIp;
  PintFramework::Builder builder;
  builder.global_bit_budget(16).add_query(by_source).add_query(by_dest);

  EXPECT_THROW(
      FanInPipeline(builder,
                    FanInConfig{.num_sinks = 2, .shards_per_sink = 1}),
      std::invalid_argument);
  EXPECT_NO_THROW(
      FanInPipeline(builder,
                    FanInConfig{.num_sinks = 1, .shards_per_sink = 1}));
}

// Epoch-based collector GC: once a source's stream ends, its reassembler
// and sequence ledger are freed — a long-running fan-in that rotates
// through many sources keeps memory proportional to *live* sources, while
// the compact per-source status stays queryable.
TEST(FanIn, CollectorDropsDeadSourceStateButKeepsStatus) {
  constexpr std::uint32_t kSources = 200;
  FanInCollector collector;
  CountingObserver obs;
  collector.add_observer(&obs);

  // One valid payload buffer, reused for every source's single epoch.
  ReportEncoder enc;
  SinkContext ctx{42, 7, 5};
  enc.add(ctx, "latency", Observation{HopSampleObservation{2, 123.5}});
  const std::vector<std::uint8_t> payload = enc.finish();

  for (std::uint32_t src = 1; src <= kSources; ++src) {
    FrameWriter writer(src);
    std::vector<std::uint8_t> wire = writer.make_open();
    const std::vector<std::uint8_t> pf = writer.make_payload(payload);
    wire.insert(wire.end(), pf.begin(), pf.end());
    const std::vector<std::uint8_t> close = writer.make_close();
    wire.insert(wire.end(), close.begin(), close.end());
    collector.ingest_stream(src, wire);
    EXPECT_EQ(collector.live_sources(), 1u);  // only the current source
    collector.end_stream(src);
    EXPECT_EQ(collector.live_sources(), 0u);  // GC'd immediately
  }

  // Every dead source's summary survives the GC.
  EXPECT_EQ(collector.sources_tracked(), kSources);
  for (std::uint32_t src = 1; src <= kSources; ++src) {
    const auto* status = collector.source_status(src);
    ASSERT_NE(status, nullptr) << "source " << src;
    EXPECT_TRUE(status->ended);
    EXPECT_EQ(status->epochs_completed, 1u);
    EXPECT_EQ(status->epochs_incomplete, 0u);
    EXPECT_EQ(status->payload_frames, 1u);
  }
  EXPECT_EQ(obs.observations, kSources);

  // Bytes for an ended source are ignored, not reassembled.
  FrameWriter writer(1);
  const std::vector<std::uint8_t> late = writer.make_open();
  collector.ingest_stream(1, late);
  EXPECT_EQ(collector.live_sources(), 0u);
  EXPECT_EQ(collector.source_status(1)->epochs_completed, 1u);
}

}  // namespace
}  // namespace pint
