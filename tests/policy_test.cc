// Pluggable admission/eviction policies (pint/policy.h) from the unit
// level up: the doorkeeper filter and frequency sketch in isolation, the
// RecordingStore's admission-aware accessors (touch / try_touch / put /
// try_put / refresh) under each policy — including the sole-oversized-flow
// and lowered-ceiling edges and the bounded second-chance eviction pass —
// and the framework integration: per-query policy installation, shed
// packets contributing no observations, exact rejection accounting in the
// memory report, and the priority plumbing the transport layer sheds by.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pint/framework.h"
#include "pint/policy.h"
#include "pint/recording_store.h"
#include "pint/sink_report.h"

namespace pint {
namespace {

// ---------------------------------------------------------------- units --

TEST(PolicyUnit, ParseAndToStringRoundTrip) {
  for (const StorePolicyKind kind :
       {StorePolicyKind::kLru, StorePolicyKind::kDoorkeeper,
        StorePolicyKind::kTinyLfu}) {
    const auto parsed = parse_store_policy(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_store_policy("mru").has_value());
  EXPECT_FALSE(parse_store_policy("").has_value());
}

TEST(PolicyUnit, FactoryReturnsNullForLru) {
  // "No policy object" IS the LRU policy: the store keeps its original
  // code path with zero per-touch overhead.
  EXPECT_EQ(make_store_policy(StorePolicyKind::kLru, 1), nullptr);
  EXPECT_NE(make_store_policy(StorePolicyKind::kDoorkeeper, 1), nullptr);
  EXPECT_NE(make_store_policy(StorePolicyKind::kTinyLfu, 1), nullptr);
}

TEST(PolicyUnit, DoorkeeperFilterRemembersThenForgets) {
  DoorkeeperFilter filter(0xF00D, /*reset_after=*/64);
  EXPECT_FALSE(filter.test(42));
  filter.insert(42);
  EXPECT_TRUE(filter.test(42));
  // Burn the insertion budget with other keys: the next insert clears the
  // filter first, so 42's mark ages out instead of accreting.
  for (std::uint64_t k = 100; k < 164; ++k) filter.insert(k);
  filter.insert(9999);
  EXPECT_GE(filter.resets(), 1u);
  EXPECT_FALSE(filter.test(42));
}

TEST(PolicyUnit, DoorkeeperAdmitsOnSecondSight) {
  DoorkeeperPolicy policy(0x5EED);
  EXPECT_EQ(policy.on_admit(7), AdmitVerdict::kReject);
  EXPECT_EQ(policy.on_admit(7), AdmitVerdict::kAdmit);
  EXPECT_EQ(policy.stats().doorkeeper_hits, 1u);
  // Eviction stays pure LRU: candidates are never second-chanced.
  EXPECT_EQ(policy.on_evict_candidate(7, 8), EvictVerdict::kEvict);
}

TEST(PolicyUnit, FrequencySketchCountsAndAges) {
  FrequencySketch sketch(0xABC);
  EXPECT_EQ(sketch.estimate(5), 0u);
  EXPECT_FALSE(sketch.record(5));  // first sight: doorkeeper only
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(sketch.record(5));
  const std::uint32_t before = sketch.estimate(5);
  EXPECT_GE(before, 10u);
  // Spend the sample budget on distinct keys: counters halve so the
  // estimate tracks the recent window, not all of history.
  for (std::uint64_t k = 0; k < FrequencySketch::kSampleSize + 1; ++k) {
    (void)sketch.record(0x1'0000'0000ULL + k);
  }
  EXPECT_GE(sketch.ages(), 1u);
  EXPECT_LT(sketch.estimate(5), before);
}

TEST(PolicyUnit, TinyLfuRetainsFrequentCandidateOverRarePressure) {
  TinyLfuPolicy policy(0xCAFE);
  for (int i = 0; i < 16; ++i) policy.on_hit(/*elephant=*/1);
  (void)policy.on_admit(/*mouse=*/2);
  // A frequent LRU-tail flow survives pressure from a rare one...
  EXPECT_EQ(policy.on_evict_candidate(1, 2), EvictVerdict::kRetain);
  // ... but a rare tail loses to frequent pressure, and that decision is
  // counted as a frequency-directed eviction.
  EXPECT_EQ(policy.on_evict_candidate(2, 1), EvictVerdict::kEvict);
  EXPECT_EQ(policy.stats().frequency_evictions, 1u);
}

// ---------------------------------------------------------------- store --

constexpr std::size_t kEntryBytes = 64;

RecordingStore<int> make_store(std::size_t capacity, StorePolicyKind kind,
                               std::uint64_t seed = 0x7E57) {
  RecordingStore<int> store(capacity, [](std::uint64_t key) {
    return static_cast<int>(key);
  }, [](const int&) { return kEntryBytes; });
  store.set_policy(make_store_policy(kind, seed));
  return store;
}

TEST(PolicyStore, SetPolicyOnLiveStoreThrows) {
  auto store = make_store(0, StorePolicyKind::kLru);
  store.touch(1);
  EXPECT_THROW(
      store.set_policy(make_store_policy(StorePolicyKind::kDoorkeeper, 1)),
      std::logic_error);
}

TEST(PolicyStore, PolicyKindReportsInstalledPolicy) {
  EXPECT_EQ(make_store(0, StorePolicyKind::kLru).policy_kind(),
            StorePolicyKind::kLru);
  EXPECT_EQ(make_store(0, StorePolicyKind::kDoorkeeper).policy_kind(),
            StorePolicyKind::kDoorkeeper);
  EXPECT_EQ(make_store(0, StorePolicyKind::kTinyLfu).policy_kind(),
            StorePolicyKind::kTinyLfu);
}

TEST(PolicyStore, TryTouchShedsFirstSightAdmitsSecond) {
  auto store = make_store(0, StorePolicyKind::kDoorkeeper);
  EXPECT_EQ(store.try_touch(1), nullptr);
  EXPECT_EQ(store.flows(), 0u);
  EXPECT_EQ(store.admissions_rejected(), 1u);
  int* state = store.try_touch(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(*state, 1);
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.doorkeeper_hits(), 1u);
  // Exactness: every arrival landed in created() or admissions_rejected().
  EXPECT_EQ(store.created(), 1u);
  EXPECT_EQ(store.admissions_rejected(), 1u);
}

TEST(PolicyStore, ForcedTouchIgnoresVerdictButTrainsPolicy) {
  auto store = make_store(0, StorePolicyKind::kDoorkeeper);
  // touch() must return state: the first-sight reject verdict is ignored,
  // but the arrival still trains the doorkeeper...
  store.touch(1) = 7;
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.admissions_rejected(), 0u);
  store.erase(1);
  // ... so the flow's NEXT admission-gated arrival is already known.
  EXPECT_NE(store.try_touch(1), nullptr);
}

TEST(PolicyStore, TryPutShedsNonResidentOverwritesResident) {
  auto store = make_store(0, StorePolicyKind::kDoorkeeper);
  EXPECT_EQ(store.try_put(1, 10), nullptr);  // first sight: shed, dropped
  EXPECT_EQ(store.admissions_rejected(), 1u);
  int* admitted = store.try_put(1, 20);  // second sight: admitted
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(*admitted, 20);
  int* overwritten = store.try_put(1, 30);  // resident: a hit, always lands
  ASSERT_NE(overwritten, nullptr);
  EXPECT_EQ(*overwritten, 30);
  EXPECT_EQ(store.admissions_rejected(), 1u);
}

TEST(PolicyStore, RefreshNeverCreatesAndTrainsHits) {
  auto store = make_store(0, StorePolicyKind::kTinyLfu);
  EXPECT_EQ(store.refresh(1), nullptr);  // not resident: no effect
  store.touch(1);
  for (int i = 0; i < 8; ++i) EXPECT_NE(store.refresh(1), nullptr);
  // The refreshes trained the sketch: flow 1 now outranks a fresh flow at
  // eviction time.
  EXPECT_EQ(store.policy()->stats().doorkeeper_hits, 0u);  // no re-admits
  auto* policy = static_cast<const TinyLfuPolicy*>(store.policy());
  EXPECT_GT(policy->sketch().estimate(1), policy->sketch().estimate(99));
}

TEST(PolicyStore, InterplayAcrossAccessorsUnderEachPolicy) {
  for (const StorePolicyKind kind :
       {StorePolicyKind::kLru, StorePolicyKind::kDoorkeeper,
        StorePolicyKind::kTinyLfu}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    auto store = make_store(0, kind);
    store.touch(1, [] { return 11; });  // forced create
    EXPECT_EQ(store.put(2, 22), 22);  // forced via put
    (void)store.try_touch(3);  // lru: creates; others: first-sight shed
    (void)store.try_put(4, 44);
    const std::uint64_t gated_creates = store.created() - 2;
    EXPECT_EQ(gated_creates + store.admissions_rejected(), 2u);
    // Residents always respond to every accessor, under every policy.
    EXPECT_NE(store.refresh(1), nullptr);
    EXPECT_NE(store.try_touch(2), nullptr);
    EXPECT_EQ(*store.try_put(1, 111), 111);
    EXPECT_EQ(store.flows(), store.created() - store.evictions());
  }
}

TEST(PolicyStore, SoleOversizedFlowStaysResidentUnderPolicy) {
  for (const StorePolicyKind kind :
       {StorePolicyKind::kDoorkeeper, StorePolicyKind::kTinyLfu}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    // Ceiling smaller than one entry: the touched flow is protected, so
    // the store keeps it, flags over_budget, and must not spin retains.
    auto store = make_store(kEntryBytes / 2, kind);
    store.touch(1);
    EXPECT_EQ(store.flows(), 1u);
    EXPECT_TRUE(store.over_budget());
    EXPECT_EQ(store.evictions(), 0u);
    EXPECT_EQ(store.evict_retains(), 0u);
    // Still resident and touchable afterwards.
    EXPECT_NE(store.try_touch(1), nullptr);
  }
}

TEST(PolicyStore, LoweredCeilingEvictsOnNextTouchUnderPolicy) {
  auto store = make_store(kEntryBytes * 8, StorePolicyKind::kDoorkeeper);
  for (std::uint64_t k = 1; k <= 8; ++k) store.touch(k);
  EXPECT_EQ(store.flows(), 8u);
  store.set_capacity_bytes(kEntryBytes * 2);
  EXPECT_EQ(store.flows(), 8u);  // lowering alone does not sweep
  store.touch(8);  // next touch enforces the new ceiling
  EXPECT_EQ(store.flows(), 2u);
  EXPECT_EQ(store.evictions(), 6u);
  EXPECT_EQ(store.flows(), store.created() - store.evictions());
  EXPECT_FALSE(store.over_budget());
}

TEST(PolicyStore, EvictionRetainsAreBoundedPerPass) {
  // A policy that always retains must not livelock eviction: the store
  // caps second chances per pass, then overrules the policy.
  struct AlwaysRetain final : StorePolicy {
    StorePolicyKind kind() const override { return StorePolicyKind::kTinyLfu; }
    AdmitVerdict on_admit(std::uint64_t) override {
      return AdmitVerdict::kAdmit;
    }
    void on_hit(std::uint64_t) override {}
    EvictVerdict on_evict_candidate(std::uint64_t, std::uint64_t) override {
      return EvictVerdict::kRetain;
    }
  };
  RecordingStore<int> store(kEntryBytes * 4, [](std::uint64_t key) {
    return static_cast<int>(key);
  }, [](const int&) { return kEntryBytes; });
  store.set_policy(std::make_unique<AlwaysRetain>());
  for (std::uint64_t k = 1; k <= 4; ++k) store.touch(k);
  store.touch(5);  // over ceiling: one pass, retains capped, then evicts
  EXPECT_LE(store.used_bytes(), store.capacity_bytes());
  EXPECT_LE(store.evict_retains(), 8u);
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_EQ(store.flows(), store.created() - store.evictions());
}

TEST(PolicyStore, TinyLfuProtectsFrequentFlowsThroughMouseChurn) {
  auto store = make_store(kEntryBytes * 10, StorePolicyKind::kTinyLfu);
  // Two elephants train the sketch with many hits.
  for (int round = 0; round < 32; ++round) {
    store.touch(1);
    store.touch(2);
  }
  // Mice churn far past the ceiling (forced touches, so they bypass the
  // admission gate and apply real pressure); the elephants' frequency
  // shields them from the LRU tail.
  for (std::uint64_t mouse = 100; mouse < 400; ++mouse) {
    store.touch(mouse);
  }
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_NE(store.find(2), nullptr);
  EXPECT_GT(store.evict_retains(), 0u);
}

// ------------------------------------------------------------ framework --

constexpr unsigned kHops = 3;

PintFramework::Builder policy_builder(std::size_t ceiling,
                                      StorePolicyKind policy) {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 16; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xBEEF)
      .memory_ceiling_bytes(ceiling)
      .default_store_policy(policy)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    1.0, latency_tuning));
  return builder;
}

Packet encode_one(PintFramework& network, PacketId id, std::uint32_t flow) {
  Packet p;
  p.id = id;
  p.tuple.src_ip = 0x0A000000u + flow;
  p.tuple.dst_ip = 0x0B000000u + flow;
  p.tuple.src_port = 7;
  p.tuple.dst_port = 443;
  for (HopIndex hop = 1; hop <= kHops; ++hop) {
    SwitchView view(static_cast<SwitchId>((flow + hop) % 16 + 1));
    view.set(metric::kHopLatencyNs, 100.0 * hop);
    network.at_switch(p, hop, view);
  }
  return p;
}

TEST(PolicyFramework, DoorkeeperShedsOnePacketFlowsExactly) {
  const auto network =
      policy_builder(0, StorePolicyKind::kLru).build_or_throw();
  const auto sink =
      policy_builder(1u << 20, StorePolicyKind::kDoorkeeper)
          .build_or_throw();
  // 64 one-packet mice: every query's store sheds each at the door.
  std::vector<Packet> packets;
  for (std::uint32_t f = 0; f < 64; ++f) {
    packets.push_back(encode_one(*network, f + 1, f));
  }
  std::vector<SinkReport> reports(packets.size());
  sink->at_sink(std::span<const Packet>(packets), kHops, reports);
  const MemoryReport mem = sink->memory_report();
  EXPECT_EQ(mem.total.flows, 0u);
  EXPECT_GT(mem.total.admissions_rejected, 0u);
  for (const QueryMemoryStats& q : *&mem) {
    EXPECT_EQ(q.policy, StorePolicyKind::kDoorkeeper);
    // Exact per-store accounting: shed arrivals created nothing.
    EXPECT_EQ(q.flows, q.created - q.evictions);
    EXPECT_EQ(q.created, 0u);
    EXPECT_EQ(q.admissions_rejected, 64u);
  }
  // A shed packet contributes no observation for that query.
  for (const SinkReport& r : reports) {
    EXPECT_EQ(r.size(), 0u);
  }
  // The same flows' second packets are admitted and observed.
  std::vector<Packet> second;
  for (std::uint32_t f = 0; f < 64; ++f) {
    second.push_back(encode_one(*network, 100 + f, f));
  }
  std::vector<SinkReport> second_reports(second.size());
  sink->at_sink(std::span<const Packet>(second), kHops, second_reports);
  EXPECT_GT(sink->memory_report().total.flows, 0u);
  EXPECT_GT(second_reports.front().size(), 0u);
  const MemoryReport report = sink->memory_report();
  const QueryMemoryStats* path = report.find("path");
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->doorkeeper_hits, 64u);
}

TEST(PolicyFramework, FlowResidencyTracksAdmission) {
  const auto network =
      policy_builder(0, StorePolicyKind::kLru).build_or_throw();
  const auto sink =
      policy_builder(1u << 20, StorePolicyKind::kDoorkeeper)
          .build_or_throw();
  const Packet p = encode_one(*network, 1, 42);
  const std::uint64_t fkey = sink->flow_key_for("path", p.tuple);
  sink->at_sink(std::span<const Packet>(&p, 1), kHops);
  EXPECT_FALSE(sink->flow_resident("path", fkey));  // first sight: shed
  const Packet p2 = encode_one(*network, 2, 42);
  sink->at_sink(std::span<const Packet>(&p2, 1), kHops);
  EXPECT_TRUE(sink->flow_resident("path", fkey));  // second: admitted
  EXPECT_FALSE(sink->flow_resident("path", fkey ^ 1));
  EXPECT_FALSE(sink->flow_resident("no_such_query", fkey));
}

TEST(PolicyFramework, PerQueryOverrideBeatsBuilderDefault) {
  auto latency = make_dynamic_query(
      "latency", std::string(extractor::kHopLatency), 8, 1.0);
  latency.store_policy = StorePolicyKind::kTinyLfu;
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  std::vector<std::uint64_t> universe{1, 2, 3, 4};
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xBEEF)
      .memory_ceiling_bytes(1u << 20)
      .default_store_policy(StorePolicyKind::kDoorkeeper)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(std::move(latency));
  const auto fw = builder.build_or_throw();
  const MemoryReport mem = fw->memory_report();
  const QueryMemoryStats* path = mem.find("path");
  const QueryMemoryStats* lat = mem.find("latency");
  ASSERT_NE(path, nullptr);
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(path->policy, StorePolicyKind::kDoorkeeper);  // builder default
  EXPECT_EQ(lat->policy, StorePolicyKind::kTinyLfu);      // spec override
}

TEST(PolicyFramework, PerPacketQueryRejectsNonLruPolicy) {
  auto cc = make_perpacket_query(
      "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0);
  cc.store_policy = StorePolicyKind::kDoorkeeper;
  PintFramework::Builder builder;
  builder.global_bit_budget(8)
      .switch_universe({1, 2, 3})
      .add_query(std::move(cc));
  const BuildResult result = builder.build();
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(result.error->code, BuildErrorCode::kInconsistentMemoryBudget);
}

TEST(PolicyFramework, QueryPrioritiesSurviveTheBuild) {
  {
    const auto fw =
        policy_builder(0, StorePolicyKind::kLru).build_or_throw();
    for (std::string_view name : fw->query_names()) {
      EXPECT_EQ(fw->spec(name)->priority, 1u);  // all-default
    }
  }
  {
    PathTracingConfig path_tuning;
    path_tuning.bits = 8;
    path_tuning.instances = 1;
    path_tuning.d = kHops;
    auto path = make_path_query("path", 8, 1.0, path_tuning);
    path.priority = 3;
    auto latency = make_dynamic_query(
        "latency", std::string(extractor::kHopLatency), 8, 1.0);
    latency.priority = 2;
    PintFramework::Builder builder;
    builder.global_bit_budget(16)
        .seed(0xBEEF)
        .switch_universe({1, 2, 3, 4})
        .add_query(std::move(path))
        .add_query(std::move(latency));
    const auto fw = builder.build_or_throw();
    EXPECT_EQ(fw->spec("path")->priority, 3u);
    EXPECT_EQ(fw->spec("latency")->priority, 2u);
  }
}

}  // namespace
}  // namespace pint
