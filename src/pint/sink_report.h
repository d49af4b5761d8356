/// \file
/// Structured sink-side results and the observer interface.
///
/// The sink's Recording Module learns one thing per query that ran on a
/// packet; instead of three fixed struct fields, a SinkReport is a small
/// inline list of per-query observations (variant-typed, allocation-free up
/// to kMaxQueriesPerPacket entries — enough for any feasible execution plan,
/// which the Builder enforces). Applications normally do not poll reports at
/// all: they register a SinkObserver and receive every observation — plus
/// path-decoded events — as callbacks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "common/types.h"
#include "pint/policy.h"

namespace pint {

/// One per-packet aggregate (e.g. the decoded bottleneck utilization).
struct AggregateObservation {
  double value = 0.0;
  bool operator==(const AggregateObservation&) const = default;
};

/// One dynamic per-flow sample: the hop this packet's digest carried and the
/// decompressed value.
struct HopSampleObservation {
  HopIndex hop = 0;
  double value = 0.0;
  bool operator==(const HopSampleObservation&) const = default;
};

/// Progress of a static per-flow (distributed coding) decode.
struct PathDigestObservation {
  unsigned resolved_hops = 0;
  unsigned path_length = 0;
  bool complete = false;
  bool operator==(const PathDigestObservation&) const = default;
};

using Observation = std::variant<AggregateObservation, HopSampleObservation,
                                 PathDigestObservation>;

/// (query name, observation) pair; the name view points at the framework's
/// registered QuerySpec and stays valid for the framework's lifetime.
struct QueryObservation {
  std::string_view query;
  Observation observation;
};

/// Aggregate Recording-Module storage accounting, summed over every
/// per-flow query's store. Attached to each SinkReport when memory bounding
/// is enabled (`bounded` set); with no ceiling configured it stays
/// all-zeros, so unbounded report streams are unchanged. Not part of the
/// report codec's wire stream.
struct MemoryCounters {
  std::size_t used_bytes = 0;
  std::size_t capacity_bytes = 0;
  std::uint64_t flows = 0;      // resident per-flow states
  std::uint64_t evictions = 0;  // cumulative LRU evictions
  /// Cumulative admissions shed by store policies (pint/policy.h); 0 under
  /// the default (LRU) policy, which admits everything.
  std::uint64_t admissions_rejected = 0;
  bool bounded = false;
  bool over_budget = false;  // some store's sole flow exceeds its ceiling
  bool operator==(const MemoryCounters&) const = default;
};

/// Fan-in transport accounting: what happened to the framed report stream
/// between this pipeline's sinks and the collector. All-zeros
/// (`active == false`) everywhere except reports stamped by a fan-in
/// pipeline (sim/fanin.h), so local-sink report streams are unchanged.
/// `frames_dropped` counts payload frames the drop-newest backpressure
/// policy refused to ship (BASEL-style: admission under pressure is an
/// explicit, observable policy, not an accident of queue growth).
struct TransportCounters {
  std::uint64_t frames_shipped = 0;  ///< payload frames written to streams
  std::uint64_t frames_dropped = 0;  ///< payload frames dropped (drop-newest)
  std::uint64_t bytes_shipped = 0;   ///< framed bytes written to streams
  std::uint64_t blocked_waits = 0;   ///< writer stalls under kBlock policy
  /// Socket-sender connection re-establishments (daemon transport only;
  /// zero for in-process streams, which cannot lose a connection).
  std::uint64_t sender_reconnects = 0;
  /// Whole frames shed by senders resynchronizing to an epoch boundary
  /// after a reconnect — kept separate from `frames_dropped` (a
  /// backpressure decision) because the remedy differs: resync sheds call
  /// for a steadier collector, drops for more capacity or lower priority
  /// traffic.
  std::uint64_t frames_resync_discarded = 0;
  bool active = false;
  bool operator==(const TransportCounters&) const = default;
};

/// One per-flow query's Recording-Module storage stats (see
/// RecordingStore); `query` points at the framework's registered spec.
struct QueryMemoryStats {
  std::string_view query;
  std::size_t used_bytes = 0;
  std::size_t capacity_bytes = 0;  // 0 = unbounded
  std::size_t peak_used_bytes = 0;
  std::size_t max_entry_bytes = 0;  // largest single flow ever accounted
  std::uint64_t flows = 0;
  std::uint64_t evictions = 0;
  std::uint64_t created = 0;
  /// Admission/eviction policy the store runs (pint/policy.h) and its
  /// decision counters — all-zeros under kLru, which admits everything
  /// and never second-guesses an eviction.
  StorePolicyKind policy = StorePolicyKind::kLru;
  std::uint64_t admissions_rejected = 0;  ///< arrivals shed at the door
  std::uint64_t doorkeeper_hits = 0;      ///< admits on a known key
  std::uint64_t frequency_evictions = 0;  ///< evicts decided by frequency
  /// Path decoders dropped on a packet whose digests left some hop with no
  /// candidate (a corrupted packet); always 0 for non-path queries.
  std::uint64_t decode_conflicts = 0;
  bool over_budget = false;
};

/// Everything the sink learned from one packet. Fixed inline capacity so the
/// batched hot path fills reports without allocating.
class SinkReport {
 public:
  static constexpr std::size_t kMaxQueriesPerPacket = 16;

  void clear() {
    count_ = 0;
    memory = MemoryCounters{};
    transport = TransportCounters{};
  }
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void add(std::string_view query, Observation obs) {
    if (count_ < kMaxQueriesPerPacket) {
      entries_[count_++] = QueryObservation{query, obs};
    }
  }

  const QueryObservation* begin() const { return entries_.data(); }
  const QueryObservation* end() const { return entries_.data() + count_; }

  /// The observation of `query`, if it ran on this packet.
  const Observation* find(std::string_view query) const {
    for (std::size_t i = 0; i < count_; ++i) {
      if (entries_[i].query == query) return &entries_[i].observation;
    }
    return nullptr;
  }

  /// Convenience: the decoded per-packet aggregate of `query`, if present.
  std::optional<double> aggregate_value(std::string_view query) const {
    const Observation* obs = find(query);
    if (obs == nullptr) return std::nullopt;
    if (const auto* agg = std::get_if<AggregateObservation>(obs)) {
      return agg->value;
    }
    return std::nullopt;
  }

  /// Recording-Module occupancy after this packet was recorded; all-zeros
  /// (`bounded == false`) unless the framework was built with a memory
  /// ceiling or per-query budgets.
  MemoryCounters memory;

  /// Fan-in transport accounting; all-zeros (`active == false`) unless
  /// stamped by a FanInPipeline (see `FanInPipeline::epoch_report`).
  TransportCounters transport;

 private:
  std::array<QueryObservation, kMaxQueriesPerPacket> entries_{};
  std::size_t count_ = 0;
};

/// Snapshot of the Recording Module's per-query storage, delivered through
/// SinkObserver::on_memory_report after any packet whose processing evicted
/// at least one flow, and available on demand from
/// PintFramework::memory_report(). Holds up to kMaxQueries per-flow query
/// entries (further queries are still summed into `total`).
struct MemoryReport {
  static constexpr std::size_t kMaxQueries = SinkReport::kMaxQueriesPerPacket;

  std::array<QueryMemoryStats, kMaxQueries> queries{};
  std::size_t query_count = 0;
  MemoryCounters total;

  const QueryMemoryStats* begin() const { return queries.data(); }
  const QueryMemoryStats* end() const { return queries.data() + query_count; }

  /// Stats of `query`, if it is a per-flow query within capacity.
  const QueryMemoryStats* find(std::string_view query) const {
    for (std::size_t i = 0; i < query_count; ++i) {
      if (queries[i].query == query) return &queries[i];
    }
    return nullptr;
  }
};

/// Per-packet context handed to observers alongside each observation.
struct SinkContext {
  PacketId packet_id = 0;
  std::uint64_t flow = 0;        // flow key under the query's flow definition
  unsigned path_length = 0;      // k
};

/// Subscribe to sink-side query results. Callbacks fire synchronously from
/// at_sink(), in query-set order; implementations must not re-enter the
/// framework. Observers are non-owning: the caller keeps them alive for the
/// framework's lifetime.
class SinkObserver {
 public:
  virtual ~SinkObserver() = default;

  /// Every observation of every query (including partial path-decode
  /// progress).
  virtual void on_observation(const SinkContext& ctx, std::string_view query,
                              const Observation& obs) {
    (void)ctx;
    (void)query;
    (void)obs;
  }

  /// Fired once per (query, flow) when a static per-flow decode completes.
  virtual void on_path_decoded(const SinkContext& ctx, std::string_view query,
                               const std::vector<SwitchId>& path) {
    (void)ctx;
    (void)query;
    (void)path;
  }

  /// Fired after any packet whose processing evicted at least one flow
  /// from a Recording-Module store, and — when
  /// `Builder::memory_report_interval_packets` is set — every N sink
  /// packets as a heartbeat (the heartbeat fires with bounding off too).
  /// With neither eviction nor a configured interval it never fires.
  virtual void on_memory_report(const MemoryReport& report) { (void)report; }
};

}  // namespace pint
