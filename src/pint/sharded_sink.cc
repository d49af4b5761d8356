#include "pint/sharded_sink.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hash/global_hash.h"

namespace pint {

// Partitioning by P is correct iff each query's flow key is a function of
// P's key (all packets sharing a query key must share a shard). Five-tuple
// refines ip-pair, which refines source-ip and destination-ip; source and
// destination are incomparable, so a mix of both has no common partition.
std::optional<FlowDefinition> common_flow_partition(const PintFramework& fw) {
  bool has_src = false;
  bool has_dst = false;
  bool has_pair = false;
  for (std::string_view name : fw.query_names()) {
    const QuerySpec* spec = fw.spec(name);
    if (spec->query.aggregation == AggregationType::kPerPacket) {
      continue;  // stateless at the sink: any shard may decode it
    }
    switch (spec->query.flow_definition) {
      case FlowDefinition::kFiveTuple:
        break;
      case FlowDefinition::kIpPair:
        has_pair = true;
        break;
      case FlowDefinition::kSourceIp:
        has_src = true;
        break;
      case FlowDefinition::kDestinationIp:
        has_dst = true;
        break;
    }
  }
  if (has_src && has_dst) return std::nullopt;
  if (has_src) return FlowDefinition::kSourceIp;
  if (has_dst) return FlowDefinition::kDestinationIp;
  if (has_pair) return FlowDefinition::kIpPair;
  return FlowDefinition::kFiveTuple;
}

// Registered on every framework replica by the first add_observer(); runs
// on the shard worker threads, one callback at a time.
class ShardedSink::SerializingObserver : public SinkObserver {
 public:
  explicit SerializingObserver(ShardedSink& parent) : parent_(parent) {}

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_observation(ctx, query, obs);
    }
  }

  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_path_decoded(ctx, query, path);
    }
  }

  // Per-shard snapshots: each covers the reporting shard's stores only
  // (shards hold disjoint flows); use ShardedSink::memory_report() for the
  // merged view.
  void on_memory_report(const MemoryReport& report) override {
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_memory_report(report);
    }
  }

 private:
  ShardedSink& parent_;
};

ShardedSink::ShardedSink(const PintFramework::Builder& builder,
                         unsigned num_shards, std::size_t queue_depth) {
  // The hot counter groups must start on private cache lines (see the
  // layout comments in the header); this fires if a refactor repacks
  // them. Inside the ctor because the nested type is private.
  PINT_ASSERT_CACHELINE_ALIGNED(Shard);
  if (num_shards == 0) {
    throw std::invalid_argument("ShardedSink needs at least one shard");
  }
  if (queue_depth == 0) {
    throw std::invalid_argument("ShardedSink needs a nonzero queue depth");
  }
  // Each shard holds 1/num_shards of the flows, so it gets 1/num_shards of
  // every Recording-Module budget; with no budgets set this is a no-op copy.
  const PintFramework::Builder replica_builder =
      num_shards > 1 ? builder.with_memory_divided(num_shards)
                     : PintFramework::Builder(builder);
  shards_.reserve(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>(queue_depth);
    shard->fw = replica_builder.build_or_throw();
    shards_.push_back(std::move(shard));
  }
  // Built now, attached by the first add_observer(): until a sink-wide
  // observer exists the replicas never take observer_mutex_.
  serializer_ = std::make_unique<SerializingObserver>(*this);
  const std::optional<FlowDefinition> def =
      common_flow_partition(*shards_[0]->fw);
  if (!def.has_value()) {
    if (num_shards > 1) {
      throw std::invalid_argument(
          "queries aggregate by both source and destination IP: no flow "
          "partition keeps both consistent across shards");
    }
    partition_def_ = FlowDefinition::kFiveTuple;  // single shard: moot
  } else {
    partition_def_ = *def;
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

ShardedSink::~ShardedSink() {
  for (auto& shard : shards_) {
    {
      MutexLock lock(shard->mutex);
      shard->stop.store(true, std::memory_order_release);
    }
    // Unconditional (not try_wake): the worker re-checks stop on every
    // wake, and a once-per-lifetime mutex+notify is not worth a protocol.
    shard->wake.notify_one();
  }
  // Discard batches no worker has started: they hold pointers into caller
  // buffers that are only guaranteed alive through the next flush(), and
  // destruction without a flush() (early exit, unwind) must not touch
  // them. The queue is multi-consumer, so draining here races the workers
  // safely and empties the backlog before they could process it (workers
  // re-check stop between batches); a batch a worker grabbed concurrently
  // counts as already being processed. Destroying a Batch only frees its
  // items.
  for (auto& shard : shards_) {
    Batch batch;
    while (shard->queue.try_pop(batch)) {
    }
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

unsigned ShardedSink::shard_of(const FiveTuple& tuple) const {
  const std::uint64_t key = flow_key(tuple, partition_def_);
  return static_cast<unsigned>(mix64(key) % shards_.size());
}

void ShardedSink::submit(std::span<const Packet> packets, unsigned k,
                         std::span<SinkReport> reports) {
  submit_items(packets, [k](std::size_t) { return k; }, reports);
}

void ShardedSink::submit(std::span<const Packet> packets,
                         std::span<const unsigned> ks,
                         std::span<SinkReport> reports) {
  if (ks.size() != packets.size()) {
    throw std::invalid_argument("ks must have one path length per packet");
  }
  submit_items(packets, [ks](std::size_t i) { return ks[i]; }, reports);
}

template <typename PathLengthOf>
void ShardedSink::submit_items(std::span<const Packet> packets,
                               PathLengthOf k_of,
                               std::span<SinkReport> reports) {
  if (!reports.empty() && reports.size() != packets.size()) {
    throw std::invalid_argument("reports must be empty or match packets");
  }
  // Load first: steady-state submits only read the flag's cache line.
  if (!submitted_.load(std::memory_order_relaxed)) {
    submitted_.store(true, std::memory_order_relaxed);
  }
  const std::size_t num_shards = shards_.size();
  std::vector<Batch> staged(num_shards);
  // First touch of a shard reserves for the expected share of the burst
  // (x2 slack absorbs ordinary skew); a pathological single-flow burst
  // regrows once or twice, an even spread never does.
  const std::size_t reserve_hint =
      num_shards == 1 ? packets.size()
                      : std::min(packets.size(),
                                 packets.size() * 2 / num_shards + 8);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    // Hash each packet's partition flow key exactly once: the same value
    // routes the packet to its shard here and rides along as a
    // FlowKeyHint so the worker's at_sink() skips the rehash.
    const std::uint64_t pkey = flow_key(packets[i].tuple, partition_def_);
    Batch& b = staged[mix64(pkey) % num_shards];
    if (b.empty()) b.reserve(reserve_hint);
    b.push_back(Item{&packets[i], pkey,
                     reports.empty() ? nullptr : &reports[i], k_of(i)});
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (staged[s].empty()) continue;
    Shard& shard = *shards_[s];
    // pending goes up before the batch is visible anywhere, so a flush()
    // racing this submit can never observe "all done" mid-handoff.
    shard.pending_batches.fetch_add(1, std::memory_order_seq_cst);
    // Bounded queue full = backpressure: this producer waits with bounded
    // exponential backoff (spin -> pause -> yield; the batch is already
    // partitioned, and blocking here is the kBlock policy — the sink
    // never grows an unbounded backlog).
    Backoff backoff;
    while (!shard.queue.try_push(std::move(staged[s]))) {
      backoff.wait();
    }
    // Publish after the push: a worker that observes queued > 0 is
    // guaranteed to find the batch (the seq_cst increment pairs with the
    // worker's seq_cst predicate load — see the wakeup protocol comment
    // below).
    shard.queued.fetch_add(1, std::memory_order_seq_cst);
    try_wake(shard);
  }
}

void ShardedSink::flush() {
  for (auto& shard : shards_) {
    // The waiter count gates the worker's idle notify: when nobody is
    // flushing (the common case), batch completion costs the worker no
    // mutex and no notify at all.
    shard->flush_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      MutexLock lock(shard->mutex);
      shard->idle.wait(shard->mutex, [&] {
        return shard->pending_batches.load(std::memory_order_seq_cst) == 0;
      });
    }
    shard->flush_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ShardedSink::check_registration_open() const {
  if (submitted_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "ShardedSink observers must be registered before the first submit()");
  }
}

void ShardedSink::add_observer(SinkObserver* observer) {
  check_registration_open();
  MutexLock lock(observer_mutex_);
  if (observers_.empty()) {
    // First sink-wide observer: from now on every replica's callbacks also
    // go through the serializer (and so through observer_mutex_).
    for (auto& shard : shards_) shard->fw->add_observer(serializer_.get());
  }
  observers_.push_back(observer);
}

void ShardedSink::add_shard_observer(unsigned shard, SinkObserver* observer) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("add_shard_observer: no such shard");
  }
  check_registration_open();
  // The mutex only serializes this append against add_observer()'s
  // serializer attachment; the worker reads the list unlocked, after
  // registration.
  MutexLock lock(observer_mutex_);
  shards_[shard]->fw->add_observer(observer);
}

// --- sleep/wake protocol ----------------------------------------------------
//
// Idle shard workers sleep through an edge-coalesced handshake, built from
// a tri-state word per worker (WakeState) plus a CV:
//
//  * The sleeper re-arms `state = kSleeping` (seq_cst) *before every*
//    predicate evaluation — including after spurious wakes — then blocks on
//    the raw CV wait if the predicate is false, and stores kAwake once it
//    leaves the loop.
//  * A producer makes work visible first (seq_cst counter bump), then loads
//    `state`. Only a kSleeping read leads anywhere: the producer CASes
//    kSleeping -> kNotified, and only the CAS winner pays the
//    mutex+notify. Reads of kAwake or kNotified cost one uncontended load.
//
// No missed wakeups: all four accesses are seq_cst, so they have one total
// order. If the producer's state load does NOT return kSleeping, that load
// precedes the sleeper's next kSleeping re-arm in the total order; the
// producer's counter bump precedes its load (program order), hence
// precedes the re-arm, hence precedes the predicate read that follows the
// re-arm — the predicate sees the work and the sleeper does not block.
// If the load DOES return kSleeping, exactly one producer wins the CAS and
// notifies under the mutex (so the notify cannot fall between the
// sleeper's predicate check and its block).
//
// Coalescing: once a producer has won the CAS, the word reads kNotified
// until the sleeper wakes — every later producer in the same sleep episode
// skips the mutex+notify entirely. On a busy system the word reads kAwake
// and *no* producer ever touches the mutex.

void ShardedSink::try_wake(Shard& shard) {
  std::atomic<WakeState>& state = shard.wake_state;
  if (state.load(std::memory_order_seq_cst) != WakeState::kSleeping) {
    return;  // awake, or this sleep episode was already signalled
  }
  WakeState expected = WakeState::kSleeping;
  if (!state.compare_exchange_strong(expected, WakeState::kNotified,
                                     std::memory_order_seq_cst)) {
    return;  // another producer won the episode's CAS
  }
  {
    // Empty critical section: the sleeper either holds the mutex and is
    // about to re-check its predicate, or is already blocked and the
    // notify below lands after it released the mutex.
    MutexLock lock(shard.mutex);
  }
  shard.wake.notify_one();
}

std::uint64_t ShardedSink::packets_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processed.load(std::memory_order_acquire);
  }
  return total;
}

MemoryReport ShardedSink::memory_report() const {
  MemoryReport merged = shards_[0]->fw->memory_report();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    const MemoryReport part = shards_[s]->fw->memory_report();
    // Replicas are built from one Builder: same queries, same order.
    for (std::size_t q = 0; q < merged.query_count; ++q) {
      QueryMemoryStats& into = merged.queries[q];
      const QueryMemoryStats& from = part.queries[q];
      into.used_bytes += from.used_bytes;
      into.capacity_bytes += from.capacity_bytes;
      into.peak_used_bytes += from.peak_used_bytes;
      into.max_entry_bytes = std::max(into.max_entry_bytes,
                                      from.max_entry_bytes);
      into.flows += from.flows;
      into.evictions += from.evictions;
      into.created += from.created;
      into.admissions_rejected += from.admissions_rejected;
      into.doorkeeper_hits += from.doorkeeper_hits;
      into.frequency_evictions += from.frequency_evictions;
      into.decode_conflicts += from.decode_conflicts;
      into.over_budget = into.over_budget || from.over_budget;
    }
    merged.total.used_bytes += part.total.used_bytes;
    merged.total.capacity_bytes += part.total.capacity_bytes;
    merged.total.flows += part.total.flows;
    merged.total.evictions += part.total.evictions;
    merged.total.admissions_rejected += part.total.admissions_rejected;
    merged.total.over_budget =
        merged.total.over_budget || part.total.over_budget;
  }
  return merged;
}

void ShardedSink::worker_loop(Shard& shard) {
  SinkReport scratch;
  for (;;) {
    // Checked between batches, not just when idle: once destruction sets
    // stop, the remaining backlog must be discarded (by ~ShardedSink),
    // not processed against possibly-dead caller buffers.
    if (shard.stop.load(std::memory_order_acquire)) return;
    Batch batch;
    if (shard.queue.try_pop(batch)) {
      shard.queued.fetch_sub(1, std::memory_order_relaxed);
      for (const Item& item : batch) {
        SinkReport& out = item.report ? *item.report : scratch;
        // Reuse the partition key submit() hashed for shard routing.
        shard.fw->at_sink(*item.packet, item.k, out,
                          FlowKeyHint{partition_def_, item.key});
      }
      shard.processed.fetch_add(batch.size(),
                                std::memory_order_release);
      if (shard.pending_batches.fetch_sub(1, std::memory_order_seq_cst) ==
              1 &&
          shard.flush_waiters.load(std::memory_order_seq_cst) > 0) {
        // Last outstanding batch with a flush() in progress: wake it.
        // Taking the mutex orders this notify after any flush() entered
        // its predicate check; with no waiter registered the notify (and
        // the mutex) are skipped — flush()'s seq_cst waiter increment
        // before its predicate read pairs with the seq_cst fetch_sub
        // here, so one side always sees the other.
        MutexLock lock(shard.mutex);
        shard.idle.notify_all();
      }
      continue;
    }
    MutexLock lock(shard.mutex);
    for (;;) {
      // Re-armed tri-state sleep (protocol comment above): producers
      // coalesce to at most one notify per episode.
      shard.wake_state.store(WakeState::kSleeping,
                             std::memory_order_seq_cst);
      if (shard.stop.load(std::memory_order_acquire) ||
          shard.queued.load(std::memory_order_seq_cst) > 0) {
        break;
      }
      shard.wake.wait(shard.mutex);
    }
    shard.wake_state.store(WakeState::kAwake, std::memory_order_seq_cst);
    if (shard.stop.load(std::memory_order_acquire)) return;
  }
}

// --- merged inference -------------------------------------------------------

std::optional<std::vector<SwitchId>> ShardedSink::flow_path(
    std::string_view query, const FiveTuple& tuple) const {
  const PintFramework& fw = shard(shard_of(tuple));
  return fw.flow_path(query, fw.flow_key_for(query, tuple));
}

double ShardedSink::path_progress(std::string_view query,
                                  const FiveTuple& tuple) const {
  const PintFramework& fw = shard(shard_of(tuple));
  return fw.path_progress(query, fw.flow_key_for(query, tuple));
}

std::optional<double> ShardedSink::latency_quantile(std::string_view query,
                                                    const FiveTuple& tuple,
                                                    HopIndex hop,
                                                    double phi) const {
  const PintFramework& fw = shard(shard_of(tuple));
  return fw.latency_quantile(query, fw.flow_key_for(query, tuple), hop, phi);
}

std::vector<std::uint64_t> ShardedSink::latency_frequent_values(
    std::string_view query, const FiveTuple& tuple, HopIndex hop,
    double theta) const {
  const PintFramework& fw = shard(shard_of(tuple));
  return fw.latency_frequent_values(query, fw.flow_key_for(query, tuple), hop,
                                    theta);
}

}  // namespace pint
