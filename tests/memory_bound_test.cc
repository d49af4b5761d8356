// Bounded-memory Recording Module, end to end: a ceilinged framework under
// heavy-tailed traffic must keep decoding the elephants while evicting
// mouse-flow state, its eviction/occupancy counters must agree with the
// underlying RecordingStores, and with the ceiling unset the report stream
// must be byte-identical to the unbounded (seed) behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "apps/anomaly_detection.h"
#include "apps/load_analysis.h"
#include "apps/microburst.h"
#include "apps/tomography.h"
#include "common/rng.h"
#include "pint/framework.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"
#include "workload/zipf.h"

namespace pint {
namespace {

constexpr unsigned kHops = 5;
constexpr std::size_t kElephants = 6;
constexpr std::size_t kRounds = 150;
constexpr std::size_t kMicePerRound = 10;

PintFramework::Builder mix_builder(std::size_t ceiling) {
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
      .memory_ceiling_bytes(ceiling)
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
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow);
  t.src_port = static_cast<std::uint16_t>(1000 + flow % 50000);
  t.dst_port = 80;
  return t;
}

// Heavy-tailed sink workload: every round interleaves one packet from each
// of the kElephants long-lived flows with kMicePerRound brand-new one-shot
// mouse flows (ids starting at 1000). Digests come from a dedicated
// unbounded "network" replica, exactly like a real wire.
std::vector<Packet> make_heavy_tailed_traffic() {
  const auto network = mix_builder(0).build_or_throw();
  std::vector<Packet> packets;
  packets.reserve(kRounds * (kElephants + kMicePerRound));
  PacketId next_id = 1;
  std::size_t next_mouse = 1000;
  const auto emit = [&](std::size_t flow) {
    Packet p;
    p.id = next_id++;
    p.tuple = tuple_of_flow(flow);
    for (HopIndex i = 1; i <= kHops; ++i) {
      SwitchView view(static_cast<SwitchId>((flow + i) % 8 + 1));
      view.set(metric::kHopLatencyNs,
               100.0 * i + static_cast<double>(flow % 13));
      view.set(metric::kLinkUtilization, 0.1 * i);
      network->at_switch(p, i, view);
    }
    packets.push_back(std::move(p));
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t e = 0; e < kElephants; ++e) emit(e);
    for (std::size_t m = 0; m < kMicePerRound; ++m) emit(next_mouse++);
  }
  return packets;
}

std::vector<std::uint8_t> stream_bytes(std::span<const Packet> packets,
                                       std::span<const SinkReport> reports) {
  ReportEncoder enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    enc.add(packets[i].id, kHops, reports[i]);
  }
  return enc.finish();
}

struct MemoryWatcher : SinkObserver {
  std::size_t reports = 0;
  MemoryReport last;

  void on_memory_report(const MemoryReport& report) override {
    ++reports;
    last = report;
  }
};

TEST(MemoryBound, ElephantsDecodeWhileMiceEvict) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  constexpr std::size_t kCeiling = 256u << 10;
  const auto fw = mix_builder(kCeiling).build_or_throw();
  ASSERT_TRUE(fw->memory_bounded());
  fw->at_sink(std::span<const Packet>(packets), kHops);

  // Every long-lived elephant keeps refreshing its decoder, so its path
  // converges despite constant mouse churn around it.
  for (std::size_t e = 0; e < kElephants; ++e) {
    const std::uint64_t fkey = fw->flow_key_for("path", tuple_of_flow(e));
    EXPECT_TRUE(fw->flow_path("path", fkey).has_value()) << "elephant " << e;
  }

  const MemoryReport mem = fw->memory_report();
  const QueryMemoryStats* path_stats = mem.find("path");
  ASSERT_NE(path_stats, nullptr);
  EXPECT_GT(path_stats->evictions, 0u);
  // Far fewer flows resident than ever created (the mice churned through).
  EXPECT_LT(path_stats->flows, kRounds * kMicePerRound / 2);
  EXPECT_GT(path_stats->created, kRounds * kMicePerRound / 2);
  // Early mice are long gone from the store.
  const std::uint64_t mouse_key =
      fw->flow_key_for("path", tuple_of_flow(1000));
  EXPECT_EQ(fw->path_progress("path", mouse_key), 0.0);
  // Accounting invariant per store: peak within ceiling + one entry.
  for (const QueryMemoryStats& q : mem) {
    ASSERT_GT(q.capacity_bytes, 0u) << q.query;
    EXPECT_LE(q.used_bytes, q.capacity_bytes + q.max_entry_bytes) << q.query;
    EXPECT_LE(q.peak_used_bytes, q.capacity_bytes + q.max_entry_bytes)
        << q.query;
  }
}

TEST(MemoryBound, CompletedPathStateIsUnderOneKiB) {
  // Candidate sets hold only survivors, so a decoded 5-hop flow keeps one
  // switch ID per hop instead of k copies of the universe.
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  const auto fw = mix_builder(1u << 20).build_or_throw();
  const std::uint64_t fkey = fw->flow_key_for("path", tuple_of_flow(0));
  const Packet* last = nullptr;
  for (const Packet& p : packets) {
    if (p.tuple != tuple_of_flow(0)) continue;
    fw->at_sink(p, kHops);
    last = &p;
    if (fw->flow_path("path", fkey).has_value()) break;
  }
  ASSERT_TRUE(fw->flow_path("path", fkey).has_value());
  // One more touch re-accounts the completed decoder's final size.
  fw->at_sink(*last, kHops);
  const MemoryReport mem = fw->memory_report();
  const QueryMemoryStats* stats = mem.find("path");
  ASSERT_EQ(stats->flows, 1u);
  EXPECT_LT(stats->used_bytes, 1024u);
}

TEST(MemoryBound, SinkReportCountersMatchMemoryReport) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  const auto fw = mix_builder(256u << 10).build_or_throw();
  std::vector<SinkReport> reports(packets.size());
  fw->at_sink(std::span<const Packet>(packets), kHops, reports);

  const MemoryCounters last = reports.back().memory;
  EXPECT_TRUE(last.bounded);
  const MemoryReport mem = fw->memory_report();
  EXPECT_EQ(last.used_bytes, mem.total.used_bytes);
  EXPECT_EQ(last.flows, mem.total.flows);
  EXPECT_EQ(last.evictions, mem.total.evictions);
  EXPECT_EQ(last.capacity_bytes, fw->memory_ceiling_bytes());
  // The per-query stats sum to the totals.
  std::size_t used = 0;
  std::uint64_t flows = 0, evictions = 0;
  for (const QueryMemoryStats& q : mem) {
    used += q.used_bytes;
    flows += q.flows;
    evictions += q.evictions;
  }
  EXPECT_EQ(used, mem.total.used_bytes);
  EXPECT_EQ(flows, mem.total.flows);
  EXPECT_EQ(evictions, mem.total.evictions);
  // A packet with nothing decodable (no digests) still carries the
  // counters: consumers may branch on report.memory.bounded per report.
  Packet blank;
  blank.id = 0xB1A4C;
  blank.tuple = tuple_of_flow(1);
  SinkReport r;
  fw->at_sink(blank, kHops, r);
  EXPECT_TRUE(r.memory.bounded);
  EXPECT_EQ(r.memory.evictions, mem.total.evictions);
}

TEST(MemoryBound, ObserverReceivesMemoryReportsOnEviction) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  MemoryWatcher watcher;
  auto builder = mix_builder(256u << 10);
  builder.add_observer(&watcher);
  const auto fw = builder.build_or_throw();
  fw->at_sink(std::span<const Packet>(packets), kHops);
  ASSERT_GT(watcher.reports, 0u);
  // The last pushed snapshot agrees with the pull-style accessor.
  const MemoryReport mem = fw->memory_report();
  EXPECT_EQ(watcher.last.total.evictions, mem.total.evictions);
  EXPECT_EQ(watcher.last.query_count, mem.query_count);
}

TEST(MemoryBound, HeartbeatFiresOnPacketInterval) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  constexpr std::uint64_t kInterval = 100;

  // Unbounded + interval: evictions are impossible, so every report the
  // observer sees is a heartbeat — exactly one per interval.
  {
    MemoryWatcher watcher;
    auto builder = mix_builder(0);
    builder.memory_report_interval_packets(kInterval).add_observer(&watcher);
    const auto fw = builder.build_or_throw();
    EXPECT_FALSE(fw->memory_bounded());
    EXPECT_EQ(fw->memory_report_interval(), kInterval);
    fw->at_sink(std::span<const Packet>(packets), kHops);
    EXPECT_EQ(watcher.reports, packets.size() / kInterval);
    EXPECT_FALSE(watcher.last.total.bounded);
    EXPECT_GT(watcher.last.total.flows, 0u);  // occupancy is still visible
  }

  // Bounded + interval: the heartbeat comes *in addition to* the
  // eviction-edge trigger, never instead of it.
  {
    MemoryWatcher edge_only;
    auto eb = mix_builder(256u << 10);
    eb.add_observer(&edge_only);
    eb.build_or_throw()->at_sink(std::span<const Packet>(packets), kHops);
    ASSERT_GT(edge_only.reports, 0u);

    MemoryWatcher both;
    auto bb = mix_builder(256u << 10);
    bb.memory_report_interval_packets(kInterval).add_observer(&both);
    bb.build_or_throw()->at_sink(std::span<const Packet>(packets), kHops);
    EXPECT_GE(both.reports, edge_only.reports);
    EXPECT_GE(both.reports, packets.size() / kInterval);
  }

  // Undecodable packets count toward the interval too: a sink mostly fed
  // junk still reports on schedule.
  {
    MemoryWatcher watcher;
    auto builder = mix_builder(0);
    builder.memory_report_interval_packets(5).add_observer(&watcher);
    const auto fw = builder.build_or_throw();
    Packet blank;
    blank.tuple = tuple_of_flow(1);
    for (int i = 0; i < 12; ++i) {
      blank.id = 0xB1A4C + i;
      fw->at_sink(blank, kHops);
    }
    EXPECT_EQ(watcher.reports, 2u);
  }
}

TEST(MemoryBound, HeartbeatFiresOnTimeInterval) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();

  // A 1 ns interval has elapsed by every packet (decoding one takes far
  // longer), so the timed heartbeat fires on essentially every packet —
  // and the packet-interval trigger stays off.
  {
    MemoryWatcher watcher;
    auto builder = mix_builder(0);
    builder.memory_report_interval(std::chrono::nanoseconds{1})
        .add_observer(&watcher);
    const auto fw = builder.build_or_throw();
    EXPECT_EQ(fw->memory_report_interval(), 0u);
    EXPECT_EQ(fw->memory_report_interval_time(),
              std::chrono::nanoseconds{1});
    fw->at_sink(std::span<const Packet>(packets), kHops);
    EXPECT_GE(watcher.reports, packets.size() / 2);
  }

  // An hour-long interval fires nothing inside a fast test run.
  {
    MemoryWatcher watcher;
    auto builder = mix_builder(0);
    builder.memory_report_interval(std::chrono::hours{1})
        .add_observer(&watcher);
    builder.build_or_throw()->at_sink(std::span<const Packet>(packets),
                                      kHops);
    EXPECT_EQ(watcher.reports, 0u);
  }

  // Paced batches: each round sleeps past the interval, so every round's
  // first packet reports — a dashboard hears from a mostly-idle sink.
  {
    MemoryWatcher watcher;
    auto builder = mix_builder(0);
    builder.memory_report_interval(std::chrono::milliseconds{5})
        .add_observer(&watcher);
    const auto fw = builder.build_or_throw();
    constexpr int kRounds = 3;
    const std::size_t per_round = packets.size() / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      std::this_thread::sleep_for(std::chrono::milliseconds{6});
      fw->at_sink(std::span<const Packet>(packets.data() + r * per_round,
                                          per_round),
                  kHops);
    }
    EXPECT_GE(watcher.reports, static_cast<std::uint64_t>(kRounds));
  }

  // Both triggers together: the union fires at least as often as either.
  {
    MemoryWatcher both;
    auto builder = mix_builder(0);
    builder.memory_report_interval_packets(100)
        .memory_report_interval(std::chrono::hours{1})
        .add_observer(&both);
    builder.build_or_throw()->at_sink(std::span<const Packet>(packets),
                                      kHops);
    EXPECT_GE(both.reports, packets.size() / 100);
  }
}

TEST(MemoryBound, NoCeilingIsByteIdenticalAndSilent) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();

  // Plain builder: the seed behavior (no ceiling configured at all).
  const auto plain = mix_builder(0).build_or_throw();
  EXPECT_FALSE(plain->memory_bounded());
  MemoryWatcher watcher;
  plain->add_observer(&watcher);
  std::vector<SinkReport> plain_reports(packets.size());
  plain->at_sink(std::span<const Packet>(packets), kHops, plain_reports);
  EXPECT_EQ(watcher.reports, 0u);  // never fires unbounded
  for (const SinkReport& r : plain_reports) {
    EXPECT_EQ(r.memory, MemoryCounters{});  // untouched: stream unchanged
  }

  // A generous ceiling that never evicts must also be byte-identical:
  // accounting runs, but observations cannot depend on it.
  const auto roomy = mix_builder(64u << 20).build_or_throw();
  std::vector<SinkReport> roomy_reports(packets.size());
  roomy->at_sink(std::span<const Packet>(packets), kHops, roomy_reports);
  EXPECT_EQ(roomy->memory_report().total.evictions, 0u);
  EXPECT_EQ(stream_bytes(packets, roomy_reports),
            stream_bytes(packets, plain_reports));
  // Inference agrees flow by flow.
  for (std::size_t e = 0; e < kElephants; ++e) {
    const std::uint64_t fkey = plain->flow_key_for("path", tuple_of_flow(e));
    EXPECT_EQ(roomy->flow_path("path", fkey), plain->flow_path("path", fkey));
    EXPECT_EQ(roomy->latency_quantile("latency", fkey, 1, 0.5),
              plain->latency_quantile("latency", fkey, 1, 0.5));
  }

  // Naming the default policy explicitly is NOT a behavior change: an
  // explicit kLru builder (with and without a ceiling) must produce the
  // exact report stream of the corresponding implicit-default builder.
  auto lru_builder = mix_builder(0);
  lru_builder.default_store_policy(StorePolicyKind::kLru);
  const auto explicit_lru = lru_builder.build_or_throw();
  std::vector<SinkReport> lru_reports(packets.size());
  explicit_lru->at_sink(std::span<const Packet>(packets), kHops, lru_reports);
  EXPECT_EQ(stream_bytes(packets, lru_reports),
            stream_bytes(packets, plain_reports));

  auto lru_roomy_builder = mix_builder(64u << 20);
  lru_roomy_builder.default_store_policy(StorePolicyKind::kLru);
  const auto lru_roomy = lru_roomy_builder.build_or_throw();
  std::vector<SinkReport> lru_roomy_reports(packets.size());
  lru_roomy->at_sink(std::span<const Packet>(packets), kHops,
                     lru_roomy_reports);
  EXPECT_EQ(lru_roomy->memory_report().total.admissions_rejected, 0u);
  EXPECT_EQ(stream_bytes(packets, lru_roomy_reports),
            stream_bytes(packets, plain_reports));
}

TEST(MemoryBound, ZipfChurnRespectsCeilingAtScale) {
  // A larger randomized churn (Zipf over 50k flows) through a small
  // ceiling: the acceptance invariant — accounting peak stays within
  // ceiling + one entry — must hold for every store.
  const auto network = mix_builder(0).build_or_throw();
  const auto fw = mix_builder(128u << 10).build_or_throw();
  Rng rng(0xBEEF);
  const ZipfDist zipf(50000, 1.05);
  std::vector<Packet> batch(512);
  PacketId next_id = 1;
  for (int chunk = 0; chunk < 30; ++chunk) {
    for (Packet& p : batch) {
      const std::size_t f = static_cast<std::size_t>(zipf.sample(rng)) - 1;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      p.digests.clear();
      p.hops_traversed = 0;
      for (HopIndex i = 1; i <= kHops; ++i) {
        SwitchView view(static_cast<SwitchId>((f + i) % 8 + 1));
        view.set(metric::kHopLatencyNs, 100.0 * i);
        view.set(metric::kLinkUtilization, 0.1 * i);
        network->at_switch(p, i, view);
      }
    }
    fw->at_sink(std::span<const Packet>(batch), kHops);
  }
  const MemoryReport mem = fw->memory_report();
  EXPECT_GT(mem.total.evictions, 0u);
  for (const QueryMemoryStats& q : mem) {
    EXPECT_LE(q.peak_used_bytes, q.capacity_bytes + q.max_entry_bytes)
        << q.query;
  }
  // The hottest Zipf rank keeps its state resident through the churn.
  const std::uint64_t hot = fw->flow_key_for("path", tuple_of_flow(0));
  EXPECT_GT(fw->path_progress("path", hot), 0.0);
}

TEST(MemoryBound, ShardedSinkSplitsCeilingAcrossShards) {
  const std::vector<Packet> packets = make_heavy_tailed_traffic();
  constexpr std::size_t kCeiling = 1u << 20;
  auto builder = mix_builder(kCeiling);

  ShardedSink sink(builder, 4);
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(sink.shard(s).memory_ceiling_bytes(), kCeiling / 4);
    EXPECT_TRUE(sink.shard(s).memory_bounded());
  }
  sink.submit(packets, kHops);
  sink.flush();

  const MemoryReport merged = sink.memory_report();
  EXPECT_EQ(merged.total.capacity_bytes, kCeiling);
  std::size_t used = 0;
  std::uint64_t flows = 0;
  for (unsigned s = 0; s < 4; ++s) {
    const MemoryReport part = sink.shard(s).memory_report();
    used += part.total.used_bytes;
    flows += part.total.flows;
  }
  EXPECT_EQ(merged.total.used_bytes, used);
  EXPECT_EQ(merged.total.flows, flows);
  // Elephants decode on their owning shards through the merged view.
  for (std::size_t e = 0; e < kElephants; ++e) {
    EXPECT_TRUE(sink.flow_path("path", tuple_of_flow(e)).has_value());
  }
}

TEST(MemoryBound, EvictedFlowReannouncesPathOnRedecode) {
  // Decode flow 0, flood mice until its decoder is evicted, then re-decode
  // it: on_path_decoded must fire a second time so bounded downstream
  // consumers (e.g. a ceilinged LoadObserver) can re-learn the path.
  struct PathCounter : SinkObserver {
    std::vector<std::uint64_t> decode_events;
    void on_path_decoded(const SinkContext& ctx, std::string_view,
                         const std::vector<SwitchId>&) override {
      decode_events.push_back(ctx.flow);
    }
  };
  const auto network = mix_builder(0).build_or_throw();
  PathCounter counter;
  auto builder = mix_builder(256u << 10);
  builder.add_observer(&counter);
  const auto fw = builder.build_or_throw();

  PacketId next_id = 1;
  const auto send = [&](std::size_t flow) {
    Packet p;
    p.id = next_id++;
    p.tuple = tuple_of_flow(flow);
    for (HopIndex i = 1; i <= kHops; ++i) {
      SwitchView view(static_cast<SwitchId>((flow + i) % 8 + 1));
      view.set(metric::kHopLatencyNs, 100.0 * i);
      view.set(metric::kLinkUtilization, 0.1 * i);
      network->at_switch(p, i, view);
    }
    fw->at_sink(p, kHops);
  };

  for (int j = 0; j < 60; ++j) send(0);  // phase 1: decode flow 0
  const std::uint64_t flow0 = fw->flow_key_for("path", tuple_of_flow(0));
  const auto announced = [&] {
    return static_cast<std::size_t>(
        std::count(counter.decode_events.begin(),
                   counter.decode_events.end(), flow0));
  };
  ASSERT_EQ(announced(), 1u);
  for (std::size_t m = 0; m < 400; ++m) send(5000 + m);  // mice flood
  EXPECT_EQ(fw->path_progress("path", flow0), 0.0);      // evicted
  for (int j = 0; j < 60; ++j) send(0);  // phase 2: re-decode
  EXPECT_EQ(announced(), 2u);
}

TEST(MemoryBound, AppObserversHonorTheirCeilings) {
  // The src/apps/ adapters opt into the same RecordingStore: per-flow
  // detector/path state is LRU-bounded and keeps serving the hot flows.
  AnomalyObserver anomaly("latency", AnomalyConfig{}, 4096);
  MicroburstObserver burst("queue", MicroburstConfig{}, 0xB0257, 64u << 10);
  LoadAnalyzer analyzer;
  LoadObserver load(analyzer, "util", "path", 2048);
  QueueTomography tomography(0x70406, 2048);

  const std::vector<SwitchId> path{1, 2, 3, 4, 5};
  for (std::uint64_t flow = 0; flow < 1000; ++flow) {
    const SinkContext ctx{flow + 1, flow, kHops};
    const Observation sample = HopSampleObservation{1, 100.0};
    anomaly.on_observation(ctx, "latency", sample);
    burst.on_observation(ctx, "queue", sample);
    load.on_path_decoded(ctx, "path", path);
    tomography.register_flow(flow, path);
  }
  EXPECT_LT(anomaly.flows_tracked(), 1000u);
  EXPECT_GT(anomaly.detectors().evictions(), 0u);
  EXPECT_LT(burst.flows_tracked(), 1000u);
  EXPECT_LT(load.path_store().flows(), 1000u);
  EXPECT_LT(tomography.flows_registered(), 1000u);
  // The most recent flows stay resident and attributable.
  load.on_observation(SinkContext{2000, 999, kHops}, "util",
                      Observation{HopSampleObservation{2, 0.5}});
  EXPECT_EQ(load.unattributed(), 0u);
  tomography.add_sample(999, 2, 7.0);
  EXPECT_EQ(tomography.dropped_samples(), 0u);
  // An evicted early flow is dropped / unattributed, not resurrected.
  tomography.add_sample(0, 2, 7.0);
  EXPECT_EQ(tomography.dropped_samples(), 1u);
}

TEST(MemoryBound, WithMemoryDividedFloorsAtOneByte) {
  auto builder = mix_builder(3);  // absurd 3-byte ceiling
  const auto divided = builder.with_memory_divided(8);
  EXPECT_EQ(divided.memory_ceiling(), 1u);  // nonzero never becomes 0
  EXPECT_EQ(builder.with_memory_divided(1).memory_ceiling(), 3u);
}

TEST(MemoryBound, DividedBudgetsNeverOvercommitDividedCeiling) {
  // Regression: clamping divided per-query budgets up to 1 byte could sum
  // past the divided ceiling, so ShardedSink construction rejected a
  // Builder the single-threaded sink accepted. Budgets that divide to
  // zero now fall back to the even split instead.
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec a = make_dynamic_query("a", std::string(extractor::kHopLatency),
                                   8, 0.5, tuning);
  a.memory_budget_bytes = 5;
  QuerySpec b = make_dynamic_query(
      "b", std::string(extractor::kQueueOccupancy), 8, 0.5, tuning);
  b.memory_budget_bytes = 5;
  PintFramework::Builder builder;
  builder.global_bit_budget(16).memory_ceiling_bytes(10).add_query(a)
      .add_query(b);
  ASSERT_TRUE(builder.build().ok());  // valid single-threaded
  // Divided by 2: ceiling 5, budgets 2+2 — still consistent, so the
  // sharded replicas build.
  EXPECT_NO_THROW(ShardedSink(builder, 2));
  // Dividing into more shards than ceiling bytes is genuinely
  // unsatisfiable (each per-flow query needs at least one byte); the
  // replica build must fail loudly rather than mis-account.
  EXPECT_THROW(ShardedSink(builder, 8), std::invalid_argument);
}

TEST(MemoryBound, DividedBudgetWithoutCeilingStaysBounded) {
  // Regression: with no global ceiling there is no remainder to fall back
  // to, so a per-query budget dividing to zero would silently disable
  // eviction; bounded configs must never divide into unbounded ones.
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec tiny = make_dynamic_query(
      "tiny", std::string(extractor::kHopLatency), 8, 1.0, tuning);
  tiny.memory_budget_bytes = 4;
  PintFramework::Builder builder;
  builder.global_bit_budget(16).add_query(tiny);
  ShardedSink sink(builder, 8);  // 4 / 8 would floor to 0
  for (unsigned s = 0; s < 8; ++s) {
    EXPECT_TRUE(sink.shard(s).memory_bounded()) << "shard " << s;
  }
}

}  // namespace
}  // namespace pint
