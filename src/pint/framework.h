/// \file
/// PINT end-to-end framework facade (paper Fig. 3).
///
/// Wires the Query Engine, the per-query encoding logic (switch side), and
/// the Recording/Inference modules (sink side) into one object, around an
/// open, registry-driven core:
///
///   * Queries name the value they aggregate via a ValueExtractor registry
///     (extractor.h): any metric computable from a SwitchView can back a
///     query — nothing is hardcoded, and several queries may share an
///     aggregation type.
///   * A PintFramework is constructed only through PintFramework::Builder,
///     which registers QuerySpecs, extractors, per-query recorder factories
///     and observers, validates bit budgets and extractor names at build
///     time, and returns typed BuildErrors instead of silently
///     misconfiguring.
///   * The sink emits a generic SinkReport of per-query observations
///     (sink_report.h) and notifies registered SinkObservers, so
///     applications subscribe to query results instead of poking framework
///     internals.
///   * Batched overloads at_switch(span<Packet>) / at_sink(span<const
///     Packet>) process packets with no per-packet allocation on the steady
///     path — the hook for sharding and multi-sink scale-out.
///
/// Wire model (unchanged from the paper): a packet's digest lanes hold, for
/// each query in its selected query set (in set order), that query's lanes
/// (path tracing may use several instances). The sink recomputes the set
/// from the packet id, so no lane metadata travels on the wire — exactly how
/// PINT stays header-free.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coding/hashed_decoder.h"
#include "common/types.h"
#include "packet/packet.h"
#include "pint/dynamic_aggregation.h"
#include "pint/extractor.h"
#include "pint/perpacket_aggregation.h"
#include "pint/query.h"
#include "pint/query_engine.h"
#include "pint/query_spec.h"
#include "pint/recording_store.h"
#include "pint/sink_report.h"
#include "pint/static_aggregation.h"

namespace pint {

enum class BuildErrorCode : std::uint8_t {
  kNoQueries,
  kEmptyQueryName,
  kDuplicateQueryName,
  kDuplicateExtractor,
  kUnknownExtractor,
  kBadBitBudget,        // zero, or above the global budget
  kBadFrequency,        // outside (0, 1]
  kBudgetBelowInstanceCount,
  kEmptySwitchUniverse,  // static query with no switch universe
  kInfeasiblePlan,       // query mix cannot meet frequencies in the budget
  kTooManyConcurrentQueries,  // a plan set exceeds SinkReport capacity
  kInconsistentMemoryBudget,  // per-query budgets over-commit the ceiling,
                              // leave a per-flow query with nothing, or sit
                              // on a stateless per-packet query
};

const char* to_string(BuildErrorCode code);

struct BuildError {
  BuildErrorCode code;
  std::string message;
};

class PintFramework;

/// A flow key a caller already computed for one flow definition, handed
/// into `at_sink` so the framework does not hash the tuple again for
/// queries using that definition. ShardedSink hashes each packet once for
/// shard routing and forwards the result here, so the digest's flow key is
/// computed exactly once end to end.
struct FlowKeyHint {
  FlowDefinition def = FlowDefinition::kFiveTuple;
  std::uint64_t key = 0;
};

/// Result of Builder::build(): exactly one of framework/error is set.
struct BuildResult {
  std::unique_ptr<PintFramework> framework;
  std::optional<BuildError> error;

  bool ok() const { return framework != nullptr; }
  explicit operator bool() const { return ok(); }
};

class PintFramework {
 public:
  class Builder {
   public:
    Builder();
    ~Builder();
    Builder(Builder&&) noexcept;
    Builder& operator=(Builder&&) noexcept;
    Builder(const Builder&);
    Builder& operator=(const Builder&);

    Builder& global_bit_budget(unsigned bits);
    Builder& seed(std::uint64_t seed);

    /// Total Recording-Module storage (bytes) across every per-flow
    /// query's decoders/recorders; 0 (the default) keeps the seed
    /// behavior — unbounded maps, no eviction, byte-identical output.
    /// With a ceiling set, per-query QuerySpec::memory_budget_bytes carve
    /// out explicit shares and the remainder is split evenly across the
    /// unbudgeted per-flow queries; least-recently-updated flows are
    /// evicted when a store crosses its share (see pint/recording_store.h).
    Builder& memory_ceiling_bytes(std::size_t bytes);
    std::size_t memory_ceiling() const { return memory_ceiling_; }

    /// Emit `on_memory_report` every `packets` sink packets (0, the
    /// default, disables the heartbeat). Complements the eviction-edge
    /// trigger: an operator dashboard hears about occupancy even while
    /// nothing is being evicted — and, unlike the edge trigger, the
    /// heartbeat fires with memory bounding off too (occupancy figures
    /// are then the unbounded stores' creation-time estimates). Inside a
    /// ShardedSink every replica counts its own packets, so expect one
    /// report per shard per interval.
    Builder& memory_report_interval_packets(std::uint64_t packets);
    std::uint64_t memory_report_interval() const {
      return memory_report_interval_;
    }

    /// Time-based heartbeat: emit `on_memory_report` whenever at least
    /// `interval` has elapsed since the last report (checked as packets
    /// pass the sink, so an idle sink stays silent — this is a telemetry
    /// cadence, not a timer thread). Zero (the default) disables it.
    /// Composes with the packet-interval trigger; inside a ShardedSink
    /// every shard replica keeps its own clock, so expect one report per
    /// shard per interval.
    Builder& memory_report_interval(std::chrono::nanoseconds interval);
    std::chrono::nanoseconds memory_report_interval_time() const {
      return memory_report_interval_time_;
    }

    /// Copy of this builder with the memory ceiling and every per-query
    /// budget divided by `parts`. Bounded never becomes unbounded: the
    /// ceiling floors at 1 byte, and under a ceiling a per-query budget
    /// that divides to zero falls back to sharing the remainder (so
    /// divided budgets cannot over-commit the divided ceiling), while
    /// without a ceiling it floors at 1 byte. ShardedSink builds its
    /// per-shard replicas through this so that the shard budgets sum to
    /// (at most) the configured ceiling. A ceiling below one byte per
    /// per-flow query per part is unsatisfiable and still fails the
    /// replica build loudly (kInconsistentMemoryBudget).
    Builder with_memory_divided(unsigned parts) const;

    /// Default admission/eviction policy for every per-flow query's
    /// Recording-Module stores (pint/policy.h); individual queries
    /// override via QuerySpec::store_policy. kLru (the default) installs
    /// no policy object and keeps the stores on their original
    /// byte-identical code path.
    Builder& default_store_policy(StorePolicyKind kind);
    StorePolicyKind default_store_policy() const {
      return default_policy_;
    }

    /// Universe of switch IDs for static per-flow (path) decoding.
    Builder& switch_universe(std::vector<std::uint64_t> ids);

    /// Register a custom metric extractor; duplicate names surface as a
    /// kDuplicateExtractor build error.
    Builder& register_extractor(std::string name, ValueExtractor fn);

    /// Register one query (spec registry keyed by query.name).
    Builder& add_query(QuerySpec spec);

    /// Non-owning; must outlive the framework.
    Builder& add_observer(SinkObserver* observer);

    /// Validates and constructs. The builder can be reused afterwards.
    [[nodiscard]] BuildResult build() const;

    /// Throws std::invalid_argument with the BuildError message on failure.
    [[nodiscard]] std::unique_ptr<PintFramework> build_or_throw() const;

   private:
    unsigned budget_ = 16;
    std::uint64_t seed_ = 0x50494E54;  // "PINT"
    std::size_t memory_ceiling_ = 0;   // 0 = unbounded (seed behavior)
    std::uint64_t memory_report_interval_ = 0;  // 0 = no heartbeat
    std::chrono::nanoseconds memory_report_interval_time_{0};  // 0 = off
    StorePolicyKind default_policy_ = StorePolicyKind::kLru;
    std::vector<std::uint64_t> universe_;
    ValueExtractorRegistry registry_;
    std::optional<std::string> duplicate_extractor_;
    std::vector<QuerySpec> specs_;
    std::vector<SinkObserver*> observers_;
  };

  // --- switch side ---------------------------------------------------------
  /// Called by every switch in path order; `i` is the 1-based hop number.
  void at_switch(Packet& packet, HopIndex i, const SwitchView& view);

  /// Batched hot path: every packet in `packets` crosses this switch at hop
  /// `i` under the same view. Allocation-free per packet on the steady path
  /// (a packet's own digest lanes are sized once, at its first hop).
  void at_switch(std::span<Packet> packets, HopIndex i,
                 const SwitchView& view);

  // --- sink side -----------------------------------------------------------
  /// Extracts the digest, updates recorders, notifies observers, and returns
  /// what was learned. `k` = the flow's path length in switches (from TTL).
  SinkReport at_sink(const Packet& packet, unsigned k);

  /// Scalar hot path: like the returning overload, but fills a caller-owned
  /// report (cleared first) — no 400-byte return copy. ShardedSink workers
  /// drain their queues through this.
  void at_sink(const Packet& packet, unsigned k, SinkReport& report);

  /// Scalar hot path with a precomputed flow key: `hint.key` must equal
  /// `flow_key(packet.tuple, hint.def)` — the framework seeds its per-packet
  /// key cache with it instead of rehashing. ShardedSink forwards the key it
  /// hashed for shard routing through this overload.
  void at_sink(const Packet& packet, unsigned k, SinkReport& report,
               const FlowKeyHint& hint);

  /// Batched hot path. `reports` must be empty (observer-only delivery) or
  /// have one entry per packet; entries are overwritten, not appended, so a
  /// caller-owned buffer makes the loop allocation-free.
  void at_sink(std::span<const Packet> packets, unsigned k,
               std::span<SinkReport> reports = {});

  /// Non-owning; must outlive the framework.
  void add_observer(SinkObserver* observer);

  // --- wire format ---------------------------------------------------------
  /// Lane widths (bits) of the packet's query set, in wire order. Returns the
  /// lane count; `out` (if non-empty) receives the widths and must hold at
  /// least max_lanes() entries.
  std::size_t lane_widths(PacketId packet, std::span<unsigned> out) const;
  std::size_t max_lanes() const { return max_lanes_; }

  /// Bit-pack the packet's digest lanes into wire bytes, and back. Both ends
  /// derive the lane layout from the packet id alone (header-free).
  /// `unpack_wire` throws std::invalid_argument on a buffer shorter than
  /// the layout, leaving `packet` untouched; otherwise it overwrites
  /// `packet.digests` in place, reusing its storage.
  std::vector<std::uint8_t> pack_wire(const Packet& packet) const;
  void unpack_wire(std::span<const std::uint8_t> bytes, Packet& packet) const;

  // --- introspection -------------------------------------------------------
  const QueryEngine& engine() const { return *engine_; }
  unsigned global_bit_budget() const { return engine_->global_bit_budget(); }

  /// True when a memory ceiling or any per-query budget is configured.
  bool memory_bounded() const { return memory_bounded_; }
  std::size_t memory_ceiling_bytes() const { return memory_ceiling_; }

  /// Packets between heartbeat memory reports (0 = heartbeat off).
  std::uint64_t memory_report_interval() const {
    return memory_report_interval_;
  }

  /// Minimum elapsed time between timed heartbeat reports (0 = off).
  std::chrono::nanoseconds memory_report_interval_time() const {
    return memory_report_interval_time_;
  }

  /// Snapshot of every per-flow query's Recording-Module storage
  /// (occupancy, peak, evictions). Cheap. While bounding is enabled the
  /// sizes are refreshed on every touch; an unbounded store deliberately
  /// sizes entries only at creation (hot-path economics — see
  /// recording_store.h), so unbounded used/peak figures understate state
  /// that grows after creation. Pushed automatically to observers
  /// (on_memory_report) after packets that evicted flows.
  MemoryReport memory_report() const;
  std::size_t lanes_for_set(const QuerySet& set) const;
  const QuerySpec* spec(std::string_view query) const;
  std::vector<std::string_view> query_names() const;

  /// Whether a per-flow query currently holds Recording-Module state for
  /// `flow_key` (no LRU effect). False for unknown/per-packet queries —
  /// the bench's residency probe for policy comparisons.
  bool flow_resident(std::string_view query, std::uint64_t flow_key) const;

  /// Flow key of `tuple` under a query's flow definition.
  std::uint64_t flow_key_for(std::string_view query,
                             const FiveTuple& tuple) const;

  // --- inference -----------------------------------------------------------
  // By query name; the name-free overloads resolve the unique (first
  // declared) query of the matching aggregation type — convenient for the
  // common one-query-per-family mix.

  /// Path of a flow, if fully decoded.
  std::optional<std::vector<SwitchId>> flow_path(std::string_view query,
                                                 std::uint64_t flow_key) const;
  std::optional<std::vector<SwitchId>> flow_path(std::uint64_t flow_key) const;

  /// Fraction of hops resolved for a flow (0 if unseen).
  double path_progress(std::string_view query, std::uint64_t flow_key) const;
  double path_progress(std::uint64_t flow_key) const;

  /// Latency quantile for (flow, hop), if samples exist.
  std::optional<double> latency_quantile(std::string_view query,
                                         std::uint64_t flow_key, HopIndex hop,
                                         double phi) const;
  std::optional<double> latency_quantile(std::uint64_t flow_key, HopIndex hop,
                                         double phi) const;

  /// Values appearing in at least a theta-fraction of (flow, hop)'s samples
  /// (Theorem 2); empty if the flow is unknown.
  std::vector<std::uint64_t> latency_frequent_values(std::string_view query,
                                                     std::uint64_t flow_key,
                                                     HopIndex hop,
                                                     double theta) const;
  std::vector<std::uint64_t> latency_frequent_values(std::uint64_t flow_key,
                                                     HopIndex hop,
                                                     double theta) const;

 private:
  friend class Builder;

  struct Binding {
    QuerySpec spec;
    ValueExtractor extract;
    unsigned lanes = 1;  // digest lanes this query occupies

    // Mixed into per-flow recorder seeds so same-family queries keep
    // independent sketch randomness (0 for the first of each family,
    // preserving the pre-Builder seeds).
    std::uint64_t recorder_salt = 0;

    // Exactly one engaged, per spec.query.aggregation.
    std::optional<PathTracingQuery> path;
    std::optional<DynamicAggregationQuery> dynamic;
    std::optional<PerPacketQuery> perpacket;

    // Recording module state (off-switch storage), keyed by flow and held
    // in LRU-evicting stores. Unsynchronized, like the rest of the
    // binding: mutated only inside at_sink()/at_sink_batch(), whose caller
    // provides the serialization (one shard worker per framework instance
    // under ShardedSink). Capacity 0 (no ceiling) keeps every flow —
    // the seed behavior. The Builder assigns capacities after validating
    // the memory budgets; only the store matching the aggregation type is
    // ever populated. on_path_decoded fires on each decoder's
    // incomplete->complete edge — once per flow unbounded; under a ceiling
    // a flow whose decoder was evicted announces again when its rebuilt
    // decoder re-completes, so bounded downstream consumers can re-learn
    // evicted paths (dedupe downstream if duplicates matter).
    RecordingStore<HashedPathDecoder> decoders{
        0, [](const HashedPathDecoder& d) { return d.approx_bytes(); }};
    // Path decoders dropped because a packet's digests contradicted them
    // (no candidate survived: a corrupted or misrouted packet).
    std::uint64_t decode_conflicts = 0;
    RecordingStore<FlowLatencyRecorder> recorders{
        0, [](const FlowLatencyRecorder& r) { return r.approx_bytes(); }};
  };

  PintFramework() = default;

  /// `view` extracts per call; `hoisted` (one value per binding) takes
  /// precedence when non-null — the batched path evaluates each extractor
  /// once per batch instead of once per packet.
  void encode_one(Packet& packet, HopIndex i, const SwitchView* view,
                  const double* hoisted);
  void sink_one(const Packet& packet, unsigned k, SinkReport& report,
                const FlowKeyHint* hint);
  void heartbeat_tick();  // periodic on_memory_report, counted per packet

  /// The packet's lane widths in wire order (empty for a packet no query
  /// set selects), precomputed at build time.
  std::span<const unsigned> widths_for(PacketId packet) const;

  const Binding* find_binding(std::string_view query) const;
  const Binding* find_binding(AggregationType aggregation) const;

  /// Sums the per-binding store counters into `out` (sets `bounded`).
  void fill_memory_counters(MemoryCounters& out) const;

  std::uint64_t seed_ = 0;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<Binding> bindings_;  // in engine order
  HashedPathDecoder::Universe switch_ids_;  // shared by every decoder
  std::vector<SinkObserver*> observers_;
  std::size_t max_lanes_ = 0;
  std::vector<std::vector<unsigned>> set_widths_;  // per plan set, wire order
  std::vector<double> extract_scratch_;  // batched at_switch hoisting
  bool memory_bounded_ = false;
  std::size_t memory_ceiling_ = 0;
  std::uint64_t last_reported_evictions_ = 0;  // on_memory_report edge
  std::uint64_t memory_report_interval_ = 0;   // heartbeat period (packets)
  std::uint64_t packets_since_memory_report_ = 0;
  std::chrono::nanoseconds memory_report_interval_time_{0};  // 0 = off
  std::chrono::steady_clock::time_point last_timed_memory_report_{};
};

}  // namespace pint
