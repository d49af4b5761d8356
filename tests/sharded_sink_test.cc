// ShardedSink: the multi-threaded Recording Module must be externally
// indistinguishable from the single-threaded sink. The load-bearing check is
// byte-identical merged SinkReport streams for the paper's three-query mix
// (Section 6.4) at several shard counts, plus merged-inference equality,
// observer delivery (per-flow order, memory heartbeats) and the
// flow-partition rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pint/framework.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"

namespace pint {
namespace {

constexpr unsigned kHops = 5;
constexpr std::size_t kFlows = 120;
constexpr std::size_t kPacketsPerFlow = 24;

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
      .seed(0xC0FFEE)
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
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow % 7);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow % 11);
  t.src_port = static_cast<std::uint16_t>(1000 + flow);
  t.dst_port = 80;
  return t;
}

// Path length of flow f: kHops, or 2..kHops switches with mixed paths.
unsigned hops_of_flow(std::size_t flow, bool mixed_paths) {
  return mixed_paths ? 2 + static_cast<unsigned>(flow % (kHops - 1)) : kHops;
}

// kFlows flows, each with a fixed path (kHops switches, or
// hops_of_flow's mix), interleaved round-robin (packet j of every flow,
// then packet j+1) — the order a real sink would see concurrent flows in.
// Digests are encoded by a dedicated "network" framework replica.
std::vector<Packet> make_encoded_traffic(bool mixed_paths = false) {
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
    for (HopIndex i = 1; i <= hops_of_flow(f, mixed_paths); ++i) {
      // Flow f's path: switches f%8+1 .. f%8+kHops (within the universe).
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.01 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  return packets;
}

// The merged report stream, canonicalized to bytes: submission order, one
// report per packet.
// `ks` holds each packet's path length; empty means kHops for all.
std::vector<std::uint8_t> stream_bytes(std::span<const Packet> packets,
                                       std::span<const SinkReport> reports,
                                       std::span<const unsigned> ks = {}) {
  ReportEncoder enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    enc.add(packets[i].id, ks.empty() ? kHops : ks[i], reports[i]);
  }
  return enc.finish();
}

struct CountingObserver : SinkObserver {
  std::atomic<std::uint64_t> observations{0};
  std::atomic<std::uint64_t> paths_decoded{0};
  // Simulated per-event observer cost: FNV rounds into a plain field, which
  // only a serialized (add_observer) registration may touch.
  unsigned work = 0;
  std::uint64_t acc = 0xcbf29ce484222325ULL;

  void burn(std::uint64_t seed) {
    std::uint64_t h = acc ^ seed;
    for (unsigned i = 0; i < work; ++i) h = (h ^ (h >> 29)) * 0x100000001B3ULL;
    acc = h;
  }
  void on_observation(const SinkContext& ctx, std::string_view,
                      const Observation&) override {
    ++observations;
    burn(ctx.packet_id);
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view,
                       const std::vector<SwitchId>&) override {
    ++paths_decoded;
    burn(ctx.packet_id);
  }
};

// Each flow's event sequence in arrival order, plus the memory heartbeats.
// Flows are recovered from packet ids (make_encoded_traffic's layout), so
// per-packet queries group by flow too.
struct FlowOrderObserver : SinkObserver {
  std::map<std::size_t, std::vector<std::pair<PacketId, std::string>>> flows;
  std::uint64_t memory_reports = 0;

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation&) override {
    flows[(ctx.packet_id - 1) % kFlows].emplace_back(ctx.packet_id, query);
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>&) override {
    flows[(ctx.packet_id - 1) % kFlows].emplace_back(
        ctx.packet_id, std::string(query) + "/path");
  }
  void on_memory_report(const MemoryReport&) override { ++memory_reports; }
};

TEST(ShardedSink, MergedReportsByteIdenticalToSingleThreaded) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  // Single-threaded reference.
  const auto baseline = builder.build_or_throw();
  std::vector<SinkReport> base_reports(packets.size());
  baseline->at_sink(std::span<const Packet>(packets), kHops, base_reports);
  const std::vector<std::uint8_t> base_bytes =
      stream_bytes(packets, base_reports);
  ASSERT_FALSE(base_bytes.empty());

  for (const unsigned shards : {1u, 2u, 4u}) {
    ShardedSink sink(builder, shards);
    EXPECT_EQ(sink.partition_definition(), FlowDefinition::kFiveTuple);
    std::vector<SinkReport> reports(packets.size());
    // Submit in several batches to exercise the queue, not one giant span.
    const std::size_t half = packets.size() / 2;
    sink.submit(std::span<const Packet>(packets.data(), half), kHops,
                std::span<SinkReport>(reports.data(), half));
    sink.submit(
        std::span<const Packet>(packets.data() + half, packets.size() - half),
        kHops, std::span<SinkReport>(reports.data() + half,
                                     packets.size() - half));
    sink.flush();
    EXPECT_EQ(sink.packets_processed(), packets.size());
    EXPECT_EQ(stream_bytes(packets, reports), base_bytes)
        << "shards=" << shards;
  }

  // Extra input: flows of four path lengths in one submit, each packet
  // carrying its own k.
  const std::vector<Packet> mixed = make_encoded_traffic(/*mixed_paths=*/true);
  std::vector<unsigned> ks;
  for (const Packet& p : mixed) {
    ks.push_back(hops_of_flow((p.id - 1) % kFlows, /*mixed_paths=*/true));
  }
  const auto mixed_baseline = builder.build_or_throw();
  std::vector<SinkReport> mixed_base_reports(mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed_baseline->at_sink(mixed[i], ks[i], mixed_base_reports[i]);
  }
  const std::vector<std::uint8_t> mixed_base_bytes =
      stream_bytes(mixed, mixed_base_reports, ks);
  for (const unsigned shards : {1u, 2u, 4u}) {
    ShardedSink sink(builder, shards);
    std::vector<SinkReport> reports(mixed.size());
    sink.submit(mixed, ks, reports);
    sink.flush();
    EXPECT_EQ(sink.packets_processed(), mixed.size());
    EXPECT_EQ(stream_bytes(mixed, reports, ks), mixed_base_bytes)
        << "mixed k, shards=" << shards;
  }
}

TEST(ShardedSink, CorruptedPathDigestsDropTheDecoderNotTheSink) {
  // A flipped path lane can leave a hop with no candidate switch. The
  // framework must drop that flow's decoder (counted in decode_conflicts)
  // and carry on; a shard worker must not die on it. Every sink layout
  // sees the same conflicts and emits the same records.
  std::vector<Packet> packets = make_encoded_traffic();
  for (std::size_t i = 0; i < packets.size(); i += 50) {
    packets[i].digests[0] ^= 0x5A;  // lane 0 is the path query's lane
  }
  const auto builder = three_query_builder();
  const auto baseline = builder.build_or_throw();
  std::vector<SinkReport> base_reports(packets.size());
  baseline->at_sink(std::span<const Packet>(packets), kHops, base_reports);

  // A conflicting packet is the only decodable packet that yields no path
  // observation, so the reports count the conflicts independently.
  std::uint64_t missing_path = 0;
  for (const SinkReport& r : base_reports) {
    const bool has_path = std::any_of(r.begin(), r.end(), [](const auto& o) {
      return o.query == "path";
    });
    if (!has_path) ++missing_path;
  }
  const std::uint64_t conflicts =
      baseline->memory_report().find("path")->decode_conflicts;
  EXPECT_GT(conflicts, 0u);
  EXPECT_EQ(conflicts, missing_path);
  EXPECT_EQ(baseline->memory_report().find("latency")->decode_conflicts, 0u);
  const std::vector<std::uint8_t> base_bytes =
      stream_bytes(packets, base_reports);

  for (const unsigned shards : {2u, 4u}) {
    ShardedSink sink(builder, shards);
    std::vector<SinkReport> reports(packets.size());
    sink.submit(packets, kHops, reports);
    sink.flush();
    EXPECT_EQ(sink.packets_processed(), packets.size());
    EXPECT_EQ(stream_bytes(packets, reports), base_bytes)
        << "shards=" << shards;
    EXPECT_EQ(sink.memory_report().find("path")->decode_conflicts, conflicts)
        << "shards=" << shards;
  }
}

TEST(ShardedSink, MergedInferenceMatchesSingleThreaded) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto baseline = builder.build_or_throw();
  baseline->at_sink(std::span<const Packet>(packets), kHops);

  ShardedSink sink(builder, 4);
  sink.submit(packets, kHops);
  sink.flush();

  std::size_t paths_checked = 0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FiveTuple tuple = tuple_of_flow(f);
    const std::uint64_t fkey = baseline->flow_key_for("path", tuple);
    EXPECT_EQ(sink.path_progress("path", tuple),
              baseline->path_progress("path", fkey));
    const auto base_path = baseline->flow_path("path", fkey);
    const auto sharded_path = sink.flow_path("path", tuple);
    EXPECT_EQ(sharded_path, base_path);
    if (base_path.has_value()) ++paths_checked;
    for (HopIndex hop = 1; hop <= kHops; ++hop) {
      EXPECT_EQ(sink.latency_quantile("latency", tuple, hop, 0.5),
                baseline->latency_quantile(
                    "latency", baseline->flow_key_for("latency", tuple), hop,
                    0.5));
    }
  }
  // With 24 packets over a 5-hop path, most flows must fully decode.
  EXPECT_GT(paths_checked, kFlows / 2);
}

TEST(ShardedSink, SerializedObserversSeeEveryEvent) {
  constexpr std::uint64_t kMemoryInterval = 100;
  const std::vector<Packet> packets = make_encoded_traffic();
  auto builder = three_query_builder();
  builder.memory_report_interval_packets(kMemoryInterval);

  const auto baseline = builder.build_or_throw();
  FlowOrderObserver reference;
  baseline->add_observer(&reference);
  baseline->at_sink(std::span<const Packet>(packets), kHops);
  ASSERT_EQ(reference.flows.size(), kFlows);

  for (const unsigned shards : {2u, 4u}) {
    ShardedSink sink(builder, shards);
    FlowOrderObserver observer;
    sink.add_observer(&observer);
    sink.submit(packets, kHops);
    sink.flush();

    // Every event arrives, and each flow's in the monolithic order: shards
    // interleave flows, never reorder one.
    EXPECT_EQ(observer.flows, reference.flows) << shards << " shards";
    // Memory heartbeats reach add_observer too: each replica reports once
    // per kMemoryInterval of its own packets.
    std::vector<std::uint64_t> shard_packets(shards);
    for (const Packet& p : packets) ++shard_packets[sink.shard_of(p.tuple)];
    std::uint64_t heartbeats = 0;
    for (const std::uint64_t n : shard_packets) {
      heartbeats += n / kMemoryInterval;
    }
    EXPECT_GT(heartbeats, 0u);
    EXPECT_EQ(observer.memory_reports, heartbeats) << shards << " shards";
  }
}

TEST(ShardedSink, PartitionUsesCoarsestFlowDefinition) {
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec by_source = make_dynamic_query(
      "per_source", std::string(extractor::kHopLatency), 8, 1.0, tuning);
  by_source.query.flow_definition = FlowDefinition::kSourceIp;
  std::vector<std::uint64_t> universe{1, 2, 3, 4};
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0))
      .add_query(by_source);

  ShardedSink sink(builder, 4);
  EXPECT_EQ(sink.partition_definition(), FlowDefinition::kSourceIp);
  // Flows sharing a source must land on one shard, whatever the rest of the
  // tuple says — otherwise the per-source recorder state would split.
  FiveTuple a = tuple_of_flow(1);
  FiveTuple b = tuple_of_flow(2);
  b.src_ip = a.src_ip;
  EXPECT_EQ(sink.shard_of(a), sink.shard_of(b));
}

TEST(ShardedSink, RejectsUnpartitionableQueryMix) {
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

  EXPECT_THROW(ShardedSink(builder, 2), std::invalid_argument);
  EXPECT_NO_THROW(ShardedSink(builder, 1));  // one shard: nothing to split
}

TEST(ShardedSink, RejectsZeroShardsAndBadBuilder) {
  EXPECT_THROW(ShardedSink(three_query_builder(), 0), std::invalid_argument);
  PintFramework::Builder empty;
  EXPECT_THROW(ShardedSink(empty, 2), std::invalid_argument);
}

// The MPMC front-end under real contention: four producer threads (think
// four NIC queues) each blast their own flows into one sink through small
// queues, so submits regularly hit a full queue and block. The merged
// per-producer report streams must equal a single-producer baseline
// byte-for-byte, and no digest may be lost or duplicated. The second input
// adds four workers churning their per-thread slab arenas while a slow
// add_observer observer holds the observer mutex, so every concurrency
// axis of the sink runs at once (this suite runs under TSAN and ASan/UBSan).
TEST(ShardedSink, MpmcFourProducerStressMatchesSingleProducerBaseline) {
  constexpr unsigned kProducers = 4;
  constexpr std::size_t kStressFlows = 500;           // per producer, disjoint
  constexpr std::size_t kStressPacketsPerFlow = 200;  // 100k per producer
  constexpr std::size_t kSubmitBatch = 512;

  const auto builder = three_query_builder();
  const auto network = builder.build_or_throw();
  std::vector<std::vector<Packet>> traffic(kProducers);
  PacketId next_id = 1;
  for (unsigned p = 0; p < kProducers; ++p) {
    std::vector<Packet>& packets = traffic[p];
    packets.reserve(kStressFlows * kStressPacketsPerFlow);
    for (std::size_t j = 0; j < kStressPacketsPerFlow; ++j) {
      for (std::size_t f = 0; f < kStressFlows; ++f) {
        Packet pkt;
        pkt.id = next_id++;
        // Producer p owns flows (p, f): disjoint across producers, so
        // per-flow packet order — the thing that determines reports — is
        // preserved no matter how the producers' submits interleave.
        pkt.tuple.src_ip =
            0x0A000000u + (p << 16) + static_cast<std::uint32_t>(f);
        pkt.tuple.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(f % 64);
        pkt.tuple.src_port = static_cast<std::uint16_t>(f);
        pkt.tuple.dst_port = static_cast<std::uint16_t>(4000 + p);
        packets.push_back(std::move(pkt));
      }
    }
    for (Packet& pkt : packets) {
      const std::uint32_t f = pkt.tuple.src_ip & 0xFFFFu;
      for (HopIndex i = 1; i <= kHops; ++i) {
        SwitchView view(static_cast<SwitchId>((f + p + i) % 8 + 1));
        view.set(metric::kHopLatencyNs,
                 50.0 * i + static_cast<double>(f % 97));
        view.set(metric::kLinkUtilization, 0.02 * i + 0.001 * p);
        network->at_switch(pkt, i, view);
      }
    }
  }

  // Single-producer baseline: the producers' streams processed one after
  // another (flows are disjoint, so cross-producer order is irrelevant to
  // any per-packet report).
  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  std::vector<std::vector<SinkReport>> base_reports(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    base_reports[p].resize(traffic[p].size());
    baseline->at_sink(std::span<const Packet>(traffic[p]), kHops,
                      base_reports[p]);
  }

  struct Case {
    unsigned shards;
    unsigned observer_work;  // FNV rounds per observer event
  };
  for (const Case c : {Case{2, 0}, Case{4, 64}}) {
    // Small queues force regular backpressure blocking in submit().
    ShardedSink sink(builder, c.shards, /*queue_depth=*/16);
    CountingObserver counter;
    counter.work = c.observer_work;
    sink.add_observer(&counter);
    std::vector<std::vector<SinkReport>> reports(kProducers);
    for (unsigned p = 0; p < kProducers; ++p) {
      reports[p].resize(traffic[p].size());
    }
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (unsigned p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        const std::span<const Packet> packets(traffic[p]);
        const std::span<SinkReport> out(reports[p]);
        for (std::size_t off = 0; off < packets.size(); off += kSubmitBatch) {
          const std::size_t n = std::min(kSubmitBatch, packets.size() - off);
          sink.submit(packets.subspan(off, n), kHops, out.subspan(off, n));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    sink.flush();

    // No digest lost or duplicated, at three independent layers: the shard
    // counters, the observer stream, and the per-packet report bytes.
    const std::size_t total =
        kProducers * kStressFlows * kStressPacketsPerFlow;
    EXPECT_EQ(sink.packets_processed(), total) << c.shards << " shards";
    EXPECT_EQ(counter.observations.load(), reference.observations.load())
        << c.shards << " shards";
    EXPECT_EQ(counter.paths_decoded.load(), reference.paths_decoded.load())
        << c.shards << " shards";
    for (unsigned p = 0; p < kProducers; ++p) {
      EXPECT_EQ(stream_bytes(traffic[p], reports[p]),
                stream_bytes(traffic[p], base_reports[p]))
          << "producer " << p << ", " << c.shards << " shards";
    }
  }
}

// Extreme-contention variant: queue depth 2 keeps every producer almost
// permanently in the submit() backoff path (spin -> pause -> yield), the
// exact regime the bounded exponential backoff replaces the raw yield()
// spin in. No submission may be lost or duplicated.
TEST(ShardedSink, ContendedProducersWithTinyQueuesLoseNothing) {
  constexpr unsigned kProducers = 4;
  constexpr std::size_t kPackets = 4000;  // per producer
  constexpr std::size_t kSubmitBatch = 8;

  const auto builder = three_query_builder();
  const auto network = builder.build_or_throw();
  std::vector<std::vector<Packet>> traffic(kProducers);
  PacketId next_id = 1;
  for (unsigned p = 0; p < kProducers; ++p) {
    traffic[p].reserve(kPackets);
    for (std::size_t j = 0; j < kPackets; ++j) {
      Packet pkt;
      pkt.id = next_id++;
      pkt.tuple.src_ip = 0x0A000000u + (p << 12) +
                         static_cast<std::uint32_t>(j % 50);
      pkt.tuple.dst_ip = 0x0B000000u;
      pkt.tuple.src_port = static_cast<std::uint16_t>(j % 50);
      pkt.tuple.dst_port = static_cast<std::uint16_t>(p);
      // One fixed path per flow (p, j % 50): path decoding requires every
      // packet of a flow to traverse the same switches.
      const std::size_t f = p * 50 + j % 50;
      for (HopIndex i = 1; i <= kHops; ++i) {
        SwitchView view(static_cast<SwitchId>((f + i) % 8 + 1));
        view.set(metric::kHopLatencyNs, 10.0 * i);
        view.set(metric::kLinkUtilization, 0.01 * i);
        network->at_switch(pkt, i, view);
      }
      traffic[p].push_back(std::move(pkt));
    }
  }

  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  for (unsigned p = 0; p < kProducers; ++p) {
    baseline->at_sink(std::span<const Packet>(traffic[p]), kHops);
  }

  ShardedSink sink(builder, 2, /*queue_depth=*/2);
  CountingObserver counter;
  sink.add_observer(&counter);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::span<const Packet> packets(traffic[p]);
      for (std::size_t off = 0; off < packets.size(); off += kSubmitBatch) {
        const std::size_t n = std::min(kSubmitBatch, packets.size() - off);
        sink.submit(packets.subspan(off, n), kHops);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  sink.flush();

  EXPECT_EQ(sink.packets_processed(), kProducers * kPackets);
  EXPECT_EQ(counter.observations.load(), reference.observations.load());
  EXPECT_EQ(counter.paths_decoded.load(), reference.paths_decoded.load());
}

TEST(ShardedSink, SubmitRejectsMismatchedReportBuffer) {
  const std::vector<Packet> packets = make_encoded_traffic();
  ShardedSink sink(three_query_builder(), 2);
  std::vector<SinkReport> too_small(packets.size() - 1);
  EXPECT_THROW(sink.submit(packets, kHops, too_small), std::invalid_argument);
  std::vector<SinkReport> too_big(packets.size() + 1);
  EXPECT_THROW(sink.submit(packets, kHops, too_big), std::invalid_argument);
  // Per-packet path lengths must cover every packet, too.
  const std::vector<unsigned> short_ks(packets.size() - 1, kHops);
  EXPECT_THROW(sink.submit(packets, short_ks), std::invalid_argument);
  // The failed submits enqueued nothing: no partial batches to drain.
  sink.flush();
  EXPECT_EQ(sink.packets_processed(), 0u);
  // A matching buffer (or none) still works on the same sink.
  std::vector<SinkReport> right(packets.size());
  sink.submit(packets, kHops, right);
  sink.flush();
  EXPECT_EQ(sink.packets_processed(), packets.size());
}

// Per-shard hooks are the lock-free merge point: each sees exactly its own
// shard's flows, on one worker thread (plain, non-atomic state — TSAN
// would flag any second writer), and together they see every event.
TEST(ShardedSink, ShardObserversSeeOnlyTheirShardOnItsWorker) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  baseline->at_sink(std::span<const Packet>(packets), kHops);

  struct ShardTap : SinkObserver {
    const ShardedSink* sink = nullptr;
    unsigned shard = 0;
    std::uint64_t events = 0;
    std::uint64_t foreign = 0;  // events of flows another shard owns
    std::vector<std::thread::id> threads;

    void note(const SinkContext& ctx) {
      ++events;
      const std::size_t flow = (ctx.packet_id - 1) % kFlows;
      if (sink->shard_of(tuple_of_flow(flow)) != shard) ++foreign;
      const std::thread::id self = std::this_thread::get_id();
      if (threads.empty() || threads.back() != self) threads.push_back(self);
    }
    void on_observation(const SinkContext& ctx, std::string_view,
                        const Observation&) override {
      note(ctx);
    }
    void on_path_decoded(const SinkContext& ctx, std::string_view,
                         const std::vector<SwitchId>&) override {
      note(ctx);
    }
  };

  constexpr unsigned kShards = 3;
  ShardedSink sink(builder, kShards);
  std::vector<ShardTap> taps(kShards);
  for (unsigned s = 0; s < kShards; ++s) {
    taps[s].sink = &sink;
    taps[s].shard = s;
    sink.add_shard_observer(s, &taps[s]);
  }
  const std::size_t half = packets.size() / 2;
  const std::span<const Packet> all(packets);
  sink.submit(all.first(half), kHops);
  sink.submit(all.subspan(half), kHops);
  sink.flush();

  std::uint64_t total = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_GT(taps[s].events, 0u) << "shard " << s;
    EXPECT_EQ(taps[s].foreign, 0u) << "shard " << s;
    ASSERT_EQ(taps[s].threads.size(), 1u) << "shard " << s;
    EXPECT_NE(taps[s].threads[0], std::this_thread::get_id());
    for (unsigned o = 0; o < s; ++o) {
      EXPECT_NE(taps[s].threads[0], taps[o].threads[0]);
    }
    total += taps[s].events;
  }
  EXPECT_EQ(total, reference.observations.load() +
                       reference.paths_decoded.load());
}

// Registration closes at the first submit(): the workers read the replicas'
// observer lists unlocked, so a late add would be a data race. Both hooks
// refuse it loudly, and the observers registered in time keep working.
TEST(ShardedSink, ObserverRegistrationClosesAtFirstSubmit) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  baseline->at_sink(std::span<const Packet>(packets), kHops);

  ShardedSink sink(builder, 2);
  CountingObserver wide;
  CountingObserver local;
  sink.add_observer(&wide);
  sink.add_shard_observer(1, &local);
  EXPECT_THROW(sink.add_shard_observer(2, &local), std::out_of_range);

  sink.submit(packets, kHops);
  CountingObserver late;
  EXPECT_THROW(sink.add_observer(&late), std::logic_error);
  EXPECT_THROW(sink.add_shard_observer(0, &late), std::logic_error);
  sink.flush();
  // Still closed once quiescent: registration is a setup-time step.
  EXPECT_THROW(sink.add_observer(&late), std::logic_error);

  EXPECT_EQ(wide.observations.load(), reference.observations.load());
  EXPECT_EQ(wide.paths_decoded.load(), reference.paths_decoded.load());
  EXPECT_GT(local.observations.load(), 0u);
  EXPECT_LT(local.observations.load(), reference.observations.load());
  EXPECT_EQ(late.observations.load() + late.paths_decoded.load(), 0u);
}

}  // namespace
}  // namespace pint
