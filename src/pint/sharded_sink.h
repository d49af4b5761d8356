/// \file
/// Sharded, multi-threaded sink: the Recording Module scaled across cores.
///
/// PINT's sink-side work (paper Section 3.4: the Recording and Inference
/// Modules) is embarrassingly parallel per flow — every recorder and path
/// decoder is keyed by a flow key, and packets of different flows never
/// share state. A ShardedSink exploits this: incoming digests are
/// partitioned by `hash(flow_key) % num_shards`, each shard owns a private
/// PintFramework replica (identical build, identical seeds, so decoding is
/// bit-for-bit the seed behavior), and one worker thread per shard drains
/// batches through the framework's `at_sink` hot path with no locks on the
/// decode path.
///
/// Because all of a flow's packets land on the same shard and each shard
/// preserves submission order, the per-packet SinkReports are identical to
/// the single-threaded sink's — only cross-flow observer interleaving
/// differs. The merged Inference-Module view routes each query to the shard
/// that owns the flow.
///
/// Cache-line discipline (see common/cacheline.h): every hot counter below
/// is single-writer — shard workers own the publish/drop/processed
/// totals, relay threads own the consumed totals — and each writer class
/// starts on its own `alignas(kCacheLineBytes)` boundary, so per-thread
/// accumulators are merged on read (observer_counters(),
/// packets_processed()) instead of ping-ponging a shared line between
/// writers. The multi-writer words (MPMC cursors, pending/queued, the
/// sleep handshakes) are contended by design and get their own lines so
/// that contention stays theirs alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cacheline.h"
#include "common/mpmc_queue.h"
#include "common/mutex.h"
#include "common/spsc_queue.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "packet/flow.h"
#include "packet/packet.h"
#include "pint/framework.h"
#include "pint/sink_report.h"

namespace pint {

/// The coarsest flow definition that keeps every registered per-flow query
/// consistent under partitioning, or nullopt if none exists (a mix of
/// source-IP- and destination-IP-keyed queries). Used by ShardedSink for
/// its shard key and by fan-in pipelines for sink homing.
std::optional<FlowDefinition> common_flow_partition(const PintFramework& fw);

/// A sink whose Recording Module is partitioned across worker threads.
///
/// Construction builds `num_shards` identical PintFramework instances from
/// one Builder (the Builder is reusable, and identical seeds make every
/// replica decode identically). Threading contract:
///
///  * `submit()` is multi-producer: any number of threads — NIC queues, in
///    practice — may call it concurrently. Each call partitions its span by
///    flow once (one hash per packet, reused downstream as a FlowKeyHint)
///    and hands each shard a single batch through that shard's bounded
///    lock-free MPMC queue (common/mpmc_queue.h), so the per-packet cost of
///    the front-end — queue CAS, worker wakeup — is amortized over the
///    burst. When a shard's queue is full, submit blocks (yield-spin) until
///    the worker drains it — explicit backpressure instead of unbounded
///    queue growth. Per-flow determinism is preserved whenever each flow's
///    packets are submitted by one producer in order (the queue keeps
///    per-producer FIFO); packets of one flow spread across racing
///    producers arrive in a nondeterministic order, exactly as they would
///    from racing NIC queues. Submitted packets (and the optional report
///    buffer) must stay alive and unmodified until the next `flush()`
///    returns.
///  * Observers registered through `add_shard_observer(s, o)` see only
///    shard `s`'s callbacks, invoked inline on that shard's worker thread
///    with no lock taken (and never through the async relay below): the
///    shard-local merge point. Each such observer's state is touched by
///    exactly one worker, and `flush()` returning orders every callback of
///    the flushed batches before the caller reads that state. This is how
///    `FanInSender` encodes one report stream per shard in parallel.
///  * Observers registered through `add_observer()` are invoked from shard
///    worker threads but serialized under an internal mutex, so ordinary
///    single-threaded observers (the `src/apps/` adapters) work unchanged.
///    The mutex-taking relay is attached to the replicas only when the
///    first such observer registers: a sink with none (per-shard hooks
///    only) takes no lock per record.
///    With `Builder::async_observers(depth, policy, relay_threads)` the
///    callbacks instead leave the packet path entirely: each shard worker
///    publishes events into a per-shard SPSC ring, and `relay_threads`
///    dedicated relay threads deliver them (still serialized under one
///    mutex, still per-shard FIFO). Relay thread `t` exclusively owns the
///    rings of shards `s % relay_threads == t`, drains them in batches,
///    and producers coalesce wakeups — at most one CV signal per relay
///    sleep episode, not one per event. A full ring applies the explicit
///    OverflowPolicy — kBlock (lossless backpressure with bounded
///    exponential backoff) or kDropNewest (drop the event, count it
///    exactly — see `observer_counters()`). Under kDropNewest only events
///    of *sheddable* queries are dropped: those at the minimum registered
///    QuerySpec::priority (with all-default priorities that is every query
///    — the pre-priority behavior). Higher-priority events and memory
///    reports (the operator's view of the shedding itself) instead take
///    the blocking path, counted in `observer_blocked_waits`. Observers
///    registered on the Builder itself bypass all of this and must be
///    thread-safe — prefer `add_observer()` here.
///  * `flush()` waits for every batch submitted *before* the call — and, in
///    async-observer mode, for the relays to drain every event those
///    batches published. Quiesce (join or barrier) producer threads first
///    if "everything" must mean their batches too.
///  * The merged inference accessors and `shard()` must only be called when
///    the sink is quiescent (after `flush()`, before the next `submit()`).
class ShardedSink {
 public:
  /// Batches a shard's MPMC queue can hold before submit() blocks.
  static constexpr std::size_t kDefaultQueueDepth = 256;

  /// Upper bound on the events one transport chunk carries (= the events
  /// delivered per observer-mutex acquisition, by the relay or by the
  /// worker's inline fast path). Sized to swallow a full submit burst
  /// (~a thousand events) so a worker that keeps up never seals
  /// mid-batch — which is what keeps the inline-delivery proof alive.
  /// The actual chunk capacity scales down with small ring depths so the
  /// configured depth — not the chunk size — sets when backpressure
  /// engages.
  static constexpr std::size_t kEventChunkCapacity = 1024;

  /// Builds `num_shards` framework replicas and starts one worker per shard.
  ///
  /// When the Builder carries Recording-Module budgets
  /// (`memory_ceiling_bytes()` / per-query `memory_budget_bytes`), each
  /// replica is built with those budgets divided by `num_shards`, so the
  /// shards' stores together stay within the configured totals (flows are
  /// partitioned, not duplicated). Eviction *timing* then differs from a
  /// single-threaded sink with the undivided ceiling — identical merged
  /// output is only guaranteed with bounding off.
  ///
  /// Throws `std::invalid_argument` if the Builder fails validation, if
  /// `num_shards` is zero, or if `num_shards > 1` and the registered
  /// queries' flow definitions admit no common partition key (source-IP and
  /// destination-IP aggregation cannot be partitioned consistently at one
  /// sink — split them across sinks instead, see `docs/ARCHITECTURE.md`).
  ShardedSink(const PintFramework::Builder& builder, unsigned num_shards,
              std::size_t queue_depth = kDefaultQueueDepth);
  ~ShardedSink();

  ShardedSink(const ShardedSink&) = delete;
  ShardedSink& operator=(const ShardedSink&) = delete;

  /// Partitions `packets` by flow and enqueues each group on its shard.
  ///
  /// Safe to call concurrently from several producer threads (see the
  /// class contract). `k` is the flows' path length in switches (as in
  /// `PintFramework::at_sink`). If `reports` is non-empty it must have one
  /// entry per packet; entry `i` is overwritten with packet `i`'s
  /// SinkReport, so after `flush()` the buffer holds the merged report
  /// stream in submission order — byte-identical to the single-threaded
  /// sink's output for the same input. Destroying the sink without a
  /// flush() discards batches no worker has started (a batch already being
  /// processed still needs its buffers alive until the destructor joins).
  ///
  /// \throws std::invalid_argument if `reports` is non-empty and
  ///   `reports.size() != packets.size()` — a silently mismatched buffer
  ///   would scribble reports at wrong indices, so it fails loudly before
  ///   anything is enqueued (no partial submission).
  void submit(std::span<const Packet> packets, unsigned k,
              std::span<SinkReport> reports = {});

  /// Blocks until every submitted packet has been processed.
  void flush();

  /// Serialized observer delivery (see the class contract).
  ///
  /// \throws std::logic_error once `submit()` has been called: the shard
  ///   workers read the replicas' observer lists without a lock.
  void add_observer(SinkObserver* observer) PINT_EXCLUDES(observer_mutex_);

  /// Shard-local observer delivery: `observer` receives shard `shard`'s
  /// callbacks on that shard's worker thread, unserialized (see the class
  /// contract). Non-owning; must outlive the sink.
  ///
  /// \throws std::out_of_range if `shard >= num_shards()`.
  /// \throws std::logic_error once `submit()` has been called.
  void add_shard_observer(unsigned shard, SinkObserver* observer)
      PINT_EXCLUDES(observer_mutex_);

  /// True when the Builder enabled `async_observers`.
  bool async_observers() const { return async_mode_; }

  /// Relay threads actually running: the Builder's `relay_threads` clamped
  /// to the shard count (async mode), or 0 in sync mode.
  unsigned relay_threads() const {
    return static_cast<unsigned>(relays_.size());
  }

  /// Async observer-stage accounting (`active` only in async mode):
  /// `observer_events` = events published to the relay rings (== events
  /// delivered once `flush()` returns), `observer_drops` = events the
  /// kDropNewest overflow policy refused (exact: published + dropped is
  /// every event the shard frameworks emitted),
  /// `observer_blocked_waits` = full-ring stalls a kBlock producer sat
  /// through. Every term is a sum of single-writer per-thread counters —
  /// merged here, on the read side. Safe to call any time; exact when
  /// quiescent.
  TransportCounters observer_counters() const;

  /// Events each relay thread has delivered (index = relay id), for load
  /// inspection. Sums to at most the published total: a shard worker that
  /// stays ahead of its relay delivers inline itself (see
  /// `flush_published`), and those events appear in no relay's count. Safe
  /// any time; exact when quiescent. Empty in sync mode.
  std::vector<std::uint64_t> relay_deliveries() const;

  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }

  /// The flow definition packets are partitioned by: the coarsest
  /// definition among the registered per-flow queries.
  FlowDefinition partition_definition() const { return partition_def_; }

  /// Which shard owns flows with this tuple.
  unsigned shard_of(const FiveTuple& tuple) const;

  /// Shard `s`'s framework replica (for inspection; quiescent only).
  const PintFramework& shard(unsigned s) const { return *shards_[s]->fw; }

  /// Total packets decoded across all shards (quiescent only).
  std::uint64_t packets_processed() const;

  /// Merged Recording-Module storage stats: per-query counters summed
  /// across every shard's store (capacities sum back to roughly the
  /// Builder's configured budgets — each shard received budget/num_shards).
  /// `peak_used_bytes` sums per-shard peaks that need not have coincided,
  /// so it is an upper bound on any simultaneous total: the per-store
  /// "peak <= share + one entry" invariant merges to at most
  /// ceiling + num_shards entries, not ceiling + one. Quiescent only.
  MemoryReport memory_report() const;

  /// \name Merged Inference-Module view
  /// Each call routes to the shard that owns the flow, so results match the
  /// single-threaded framework exactly. Quiescent only.
  ///@{
  std::optional<std::vector<SwitchId>> flow_path(std::string_view query,
                                                 const FiveTuple& tuple) const;
  double path_progress(std::string_view query, const FiveTuple& tuple) const;
  std::optional<double> latency_quantile(std::string_view query,
                                         const FiveTuple& tuple, HopIndex hop,
                                         double phi) const;
  std::vector<std::uint64_t> latency_frequent_values(std::string_view query,
                                                     const FiveTuple& tuple,
                                                     HopIndex hop,
                                                     double theta) const;
  ///@}

 private:
  // Sleep/notify handshake word for the edge-coalesced wakeups (see the
  // .cc protocol comment). kSleeping = the sleeper re-armed and is (about
  // to be) blocked on its CV; kNotified = a producer already paid the
  // mutex+notify for this sleep episode, later producers skip it; kAwake =
  // the fast path, producers pay one atomic load and nothing else.
  enum class WakeState : std::uint8_t { kAwake, kSleeping, kNotified };

  // One unit of handoff: per-packet entries pointing into the caller's
  // submit() spans, plus the partition flow key submit() already hashed —
  // forwarded to the framework as a FlowKeyHint so the digest is hashed
  // exactly once (shard routing and store lookup share the result). One
  // vector per shard, not three: a third of the allocations and one
  // contiguous stream for the worker to walk.
  struct Item {
    const Packet* packet = nullptr;
    std::uint64_t key = 0;        // partition-definition flow key
    SinkReport* report = nullptr;  // null when the caller passed no buffer
  };
  struct Batch {
    std::vector<Item> items;
    unsigned k = 0;
  };

  // One observer callback, captured for relay off the packet path. Query
  // names point at the shard framework's registered specs (alive for the
  // sink's lifetime); paths and memory reports are copied.
  //
  // Path events dominated the async overhead when this struct held a
  // std::vector: every decoded path paid a malloc on the shard worker and
  // a free on the relay (glibc's cross-thread-free slow path), per event.
  // Typical paths now live inline in the event, and every byte here is
  // deliberate: the transport writes and reads sizeof(ObserverEvent) per
  // event, so struct size is directly memory traffic between the worker's
  // and relay's cache footprints. The two rare payloads (a path deeper
  // than the inline buffer, a memory-report copy) share one boxed pointer
  // instead of carrying a vector and a unique_ptr each.
  struct ObserverEvent {
    enum class Kind : std::uint8_t { kObservation, kPath, kMemory };

    /// Hop capacity of the inline path buffer (32 bytes — covers the 5–8
    /// hop diameters PINT targets; deeper paths box into Overflow).
    static constexpr std::size_t kInlinePathHops = 8;

    /// Boxed cold payloads: at most one of the members is ever active
    /// (a kPath event never carries a memory report and vice versa).
    struct Overflow {
      std::vector<SwitchId> path;
      std::unique_ptr<MemoryReport> memory;
    };

    Kind kind = Kind::kObservation;
    std::uint8_t path_len = 0;  // inline hops used (kPath, inline case)
    // Deliberately not value-initialized: the worker assigns ctx for every
    // observation/path event, and memory events never read it — zeroing it
    // per emplace would be a dead store on the hot path. Same for `path`:
    // only hops [0, path_len) are ever read.
    SinkContext ctx;
    std::string_view query{};
    Observation obs{};
    std::array<SwitchId, kInlinePathHops> path;  // inline hop storage
    // Null for the overwhelming majority of events; see Overflow.
    std::unique_ptr<Overflow> overflow{};

    void set_path(const std::vector<SwitchId>& hops) {
      if (hops.size() <= kInlinePathHops) {
        path_len = static_cast<std::uint8_t>(hops.size());
        std::copy(hops.begin(), hops.end(), path.begin());
      } else {
        overflow = std::make_unique<Overflow>();
        overflow->path = hops;
      }
    }
  };

  // Unit of worker->relay transport: a reusable buffer of events, passed
  // through the rings by owner pointer (see Shard::obs_ring).
  using EventChunk = std::vector<ObserverEvent>;

  struct Shard;

  // One relay thread: exclusively drains the SPSC rings of the shards
  // assigned to it at construction (`shards`, immutable afterwards — ring
  // consumption stays single-consumer by construction, no lock needed).
  struct RelayThread {
    // Producer<->relay sleep handshake: shard workers load/CAS it, the
    // relay stores it around its CV wait. Own cache line so the handshake
    // word never collides with this relay's counters or a neighboring
    // RelayThread in the owning vector.
    alignas(kCacheLineBytes) std::atomic<WakeState> state{WakeState::kAwake};
    // Single-writer (this relay) delivery total, merged on read by
    // relay_deliveries(); own line so the relay's increments don't
    // invalidate the producers' handshake line.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> delivered{0};
    // Cold / read-mostly tail. The mutex guards no plain data (the sleep
    // predicate reads atomics): it exists so the CV sleep/notify pairs are
    // race-free.
    alignas(kCacheLineBytes) Mutex mutex;
    CondVar wake;
    std::vector<Shard*> shards;  // fixed at construction (ctor only)
    // Reused bridge from an event's inline path buffer to the observer
    // API's vector parameter: assign() into retained capacity, so inline
    // path delivery allocates exactly once per relay lifetime.
    std::vector<SwitchId> path_scratch;
    std::thread thread;
  };

  struct Shard {
    explicit Shard(std::size_t queue_depth) : queue(queue_depth) {}

    std::unique_ptr<PintFramework> fw;
    MpmcQueue<Batch> queue;  // multi-producer front-end, worker consumes
    // Async observer transport (null in sync mode). Events travel in
    // *chunks* — pointer-sized ring payloads — not one ring slot per
    // event: the worker constructs each event exactly once, in place, in
    // its open chunk, seals the chunk into obs_ring (an 8-byte move), and
    // the relay delivers the whole chunk under one observer-mutex
    // acquisition, then hands the emptied buffer back through obs_recycle.
    // After warmup the event path touches the allocator zero times. The
    // per-event ring this replaces paid four member-wise ObserverEvent
    // moves per event (~100ns/event of pure memcpy and cell resets) — the
    // dominant term in async-vs-sync on one core.
    //
    // The shard worker is the sole producer of obs_ring and sole consumer
    // of obs_recycle; its relay (fixed at construction) is the reverse.
    std::unique_ptr<SpscQueue<std::unique_ptr<EventChunk>>> obs_ring;
    std::unique_ptr<SpscQueue<std::unique_ptr<EventChunk>>> obs_recycle;
    RelayThread* relay = nullptr;

    // -- shard-worker-written counters (single writer; others read) -----
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> obs_published{0};
    std::atomic<std::uint64_t> obs_dropped{0};
    std::atomic<std::uint64_t> obs_blocked{0};
    std::atomic<std::uint64_t> processed{0};
    // Events published (appended to the open chunk or sealed into the
    // ring) but not yet added to obs_published: the worker accumulates
    // here (plain, worker-thread-only) and folds into the atomic once per
    // MPMC batch — the publish fast path touches no atomic counter at all.
    // Folded before pending_batches is decremented, so flush()'s
    // pending==0 wait orders every fold before its consumed-vs-published
    // comparison.
    std::uint64_t obs_batched = 0;
    // Worker-only transport state (same single-writer sharing class as the
    // counters above): the chunk being filled, and the per-chunk event
    // capacity — min(kEventChunkCapacity, max(1, depth/4)), so small
    // configured depths still mean "backpressure after ~depth events", not
    // "after kEventChunkCapacity * ring slots".
    std::unique_ptr<EventChunk> open_chunk;
    std::size_t chunk_capacity = kEventChunkCapacity;
    // Wake hysteresis (chunks): flush_published() only wakes the relay
    // once the ring holds this many chunks (half its capacity). On few
    // cores this is what keeps worker and relay from ping-ponging every
    // batch — each runs a longer stretch with its working set (flow
    // stores vs. observer/encoder state) resident. Liveness never
    // depends on it: the blocked path, flush(), and the worker's
    // going-idle path all wake unconditionally.
    std::size_t wake_occupancy = 1;
    // Worker-exact transport totals (plain: written and read only by the
    // shard worker): events sealed into obs_ring, and events the worker
    // delivered inline (flush_published()'s fast path). Their sum equals
    // obs_consumed exactly when the relay has delivered every chunk this
    // shard ever sealed and holds none in flight — the proof the inline
    // path rests on.
    std::uint64_t obs_sealed = 0;
    std::uint64_t obs_inline = 0;
    // Worker-side twin of RelayThread::path_scratch, for inline delivery.
    std::vector<SwitchId> path_scratch;

    // -- delivery total (relay-written; worker-written when provably
    //    relay-idle) ----------------------------------------------------
    // Not in the worker group above: the relay bumps it per delivered
    // chunk, and sharing its line would put that bump in the worker's
    // publish path (false sharing). The worker's inline-delivery path
    // also bumps it, but only having proved consumed == sealed + inline —
    // i.e. the relay has nothing left that could make it write — so the
    // two writers never contend on the line.
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> obs_consumed{0};

    // -- multi-writer coordination words (contended by design) ----------
    // queued counts published batches (sleep/wake signal): pushes that
    // completed their post-push increment, minus pops. A worker can pop a
    // batch before its producer's increment lands, so the counter is
    // signed and transiently negative — the sleep predicate treats <= 0
    // as "nothing published" and the producer's notify-after-increment
    // keeps liveness. pending counts batches not yet fully processed
    // (flush signal); flush_waiters gates the idle notify so workers skip
    // the mutex when nobody is flushing.
    alignas(kCacheLineBytes) std::atomic<std::ptrdiff_t> queued{0};
    std::atomic<std::size_t> pending_batches{0};
    std::atomic<WakeState> wake_state{WakeState::kAwake};
    std::atomic<int> flush_waiters{0};
    // atomic: the worker re-checks it between batches without the mutex,
    // so destruction stops the drain instead of processing a backlog of
    // batches whose caller buffers may already be gone.
    std::atomic<bool> stop{false};

    // -- cold tail ------------------------------------------------------
    // The mutex guards no plain data (the predicates above are atomics):
    // it exists so the cv sleep/notify pairs are race-free. Annotated
    // anyway so the analysis checks every wait holds it.
    alignas(kCacheLineBytes) Mutex mutex;
    CondVar wake;  // worker waits for work / stop
    CondVar idle;  // flush() waits for pending == 0
    std::thread worker;
  };

  // Per-shard framework observer: forwards callbacks to observers_ under
  // observer_mutex_ (sync mode) or publishes them to the shard's ring
  // (async mode). Attached to the replicas by the first add_observer().
  class ShardRelay;

  // Throws std::logic_error once submit() has run (registration contract).
  void check_registration_open() const;
  void worker_loop(Shard& shard) PINT_EXCLUDES(observer_mutex_);
  bool event_sheddable(ObserverEvent::Kind kind, std::string_view query) const;
  // Admits one event into the shard's transport and returns the in-place
  // slot for the caller (the shard worker) to fill — or nullptr when the
  // transport is full and kDropNewest shed the event (already counted).
  // Seals and pushes the open chunk when it reaches capacity, blocking
  // with backoff for non-sheddable events under a full ring.
  ObserverEvent* begin_publish(Shard& shard, ObserverEvent::Kind kind,
                               std::string_view query);
  // Pushes the (non-empty) open chunk into the ring and replaces it with a
  // recycled or fresh buffer; false when the ring is full (chunk intact).
  bool try_seal_open_chunk(Shard& shard);
  // End-of-batch publish: folds obs_batched into obs_published and either
  // delivers the open chunk inline (kBlock only, relay provably idle: one
  // mutex acquisition while the events are still cache-hot, no ring
  // round-trip) or seals it into the ring and wakes the relay. Called by
  // the shard worker once per drained MPMC batch.
  void flush_published(Shard& shard) PINT_EXCLUDES(observer_mutex_);
  void deliver_event(const ObserverEvent& event,
                     std::vector<SwitchId>& path_scratch)
      PINT_REQUIRES(observer_mutex_);
  void relay_loop(RelayThread& relay) PINT_EXCLUDES(observer_mutex_);
  std::size_t drain_rings(RelayThread& relay) PINT_EXCLUDES(observer_mutex_);
  // Edge-coalesced CV signal: notifies only when it wins the
  // kSleeping -> kNotified transition (at most one mutex+notify per sleep
  // episode; see the .cc protocol comment).
  static void try_wake(std::atomic<WakeState>& state, Mutex& mutex,
                       CondVar& cv);

  std::vector<std::unique_ptr<Shard>> shards_;
  FlowDefinition partition_def_ = FlowDefinition::kFiveTuple;
  // Priority shedding classes: query name -> whether its observer events
  // are droppable under kDropNewest (priority == the minimum registered).
  // Keys view shard 0's registered specs (alive for the sink's lifetime);
  // lookups hash by content, so any shard's name views match. Immutable
  // after construction, read from shard workers without a lock.
  std::unordered_map<std::string_view, bool> sheddable_;
  std::vector<std::unique_ptr<ShardRelay>> shard_relays_;
  Mutex observer_mutex_;
  std::vector<SinkObserver*> observers_ PINT_GUARDED_BY(observer_mutex_);
  // Set by the first submit(); closes observer registration for good.
  std::atomic<bool> submitted_{false};
  // Async observer stage. relays_ is fixed at construction (shard->relay
  // assignment is immutable); relay_stop_ is the only cross-relay word and
  // flips exactly once, in the destructor.
  bool async_mode_ = false;
  OverflowPolicy async_policy_ = OverflowPolicy::kBlock;
  std::vector<std::unique_ptr<RelayThread>> relays_;
  std::atomic<bool> relay_stop_{false};
};

}  // namespace pint
