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
/// Cache-line discipline (see common/cacheline.h): each shard's worker-only
/// counter starts on its own `alignas(kCacheLineBytes)` boundary and is
/// merged on read (packets_processed()) instead of ping-ponging a shared
/// line between workers. The multi-writer words (MPMC cursors,
/// pending/queued, the sleep handshake) are contended by design and get
/// their own lines so that contention stays theirs alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cacheline.h"
#include "common/mpmc_queue.h"
#include "common/mutex.h"
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
///    with no lock taken: the shard-local merge point. Each such
///    observer's state is touched by exactly one worker, and `flush()`
///    returning orders every callback of the flushed batches before the
///    caller reads that state. This is how `FanInSender` encodes one report
///    stream per shard in parallel.
///  * Observers registered through `add_observer()` are invoked inline on
///    the shard workers but serialized under an internal mutex, so
///    ordinary single-threaded observers (the `src/apps/` adapters) work
///    unchanged; each flow's events arrive in the single-threaded sink's
///    order. The mutex-taking forwarder is attached to the replicas only
///    when the first such observer registers: a sink with none (per-shard
///    hooks only) takes no lock per record. There is no off-path delivery
///    here: observer work that must not slow the workers belongs behind a
///    `FanInCollector` (sim/fanin.h), whose framing layer is also the one
///    place overload is shed (by priority class). Observers registered on
///    the Builder itself bypass all of this and must be thread-safe —
///    prefer `add_observer()` here.
///  * `flush()` waits for every batch submitted *before* the call, and so
///    for every observer callback those batches made. Quiesce (join or
///    barrier) producer threads first if "everything" must mean their
///    batches too.
///  * The merged inference accessors and `shard()` must only be called when
///    the sink is quiescent (after `flush()`, before the next `submit()`).
class ShardedSink {
 public:
  /// Batches a shard's MPMC queue can hold before submit() blocks.
  static constexpr std::size_t kDefaultQueueDepth = 256;

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

  /// Like the uniform-`k` submit, but packet `i` has path length `ks[i]`,
  /// so one call may carry flows of every path length in arrival order.
  ///
  /// \throws std::invalid_argument if `ks.size() != packets.size()`, or on
  ///   a mismatched `reports` buffer (as above); nothing is enqueued.
  void submit(std::span<const Packet> packets, std::span<const unsigned> ks,
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
    unsigned k = 0;                // the packet's path length
  };
  using Batch = std::vector<Item>;

  struct Shard {
    explicit Shard(std::size_t queue_depth) : queue(queue_depth) {}

    std::unique_ptr<PintFramework> fw;
    MpmcQueue<Batch> queue;  // multi-producer front-end, worker consumes

    // -- shard-worker-written counter (single writer; others read) -------
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> processed{0};

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

  // Framework observer that forwards every callback to observers_ under
  // observer_mutex_. One instance serves every replica; the first
  // add_observer() attaches it.
  class SerializingObserver;

  // Both submit() overloads: `k_of(i)` is packet i's path length.
  template <typename PathLengthOf>
  void submit_items(std::span<const Packet> packets, PathLengthOf k_of,
                    std::span<SinkReport> reports);
  // Throws std::logic_error once submit() has run (registration contract).
  void check_registration_open() const;
  void worker_loop(Shard& shard) PINT_EXCLUDES(observer_mutex_);
  // Edge-coalesced CV signal: notifies only when it wins the
  // kSleeping -> kNotified transition (at most one mutex+notify per sleep
  // episode; see the .cc protocol comment).
  static void try_wake(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  FlowDefinition partition_def_ = FlowDefinition::kFiveTuple;
  std::unique_ptr<SerializingObserver> serializer_;
  Mutex observer_mutex_;
  std::vector<SinkObserver*> observers_ PINT_GUARDED_BY(observer_mutex_);
  // Set by the first submit(); closes observer registration for good.
  std::atomic<bool> submitted_{false};
};

}  // namespace pint
