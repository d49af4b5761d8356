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

// Registered on one shard's framework replica by the first add_observer();
// runs on that shard's worker thread. Sync mode forwards inline under the
// observer mutex (the pre-async behavior); async mode captures the callback
// as an ObserverEvent and publishes it to the shard's SPSC ring for the
// shard's relay thread.
class ShardedSink::ShardRelay : public SinkObserver {
 public:
  ShardRelay(ShardedSink& parent, Shard& shard)
      : parent_(parent), shard_(shard) {}

  // The async branches fill a transport slot in place (begin_publish
  // returns the chunk-resident event, or nullptr when kDropNewest shed
  // it): the event is constructed exactly once, where the relay will read
  // it — no intermediate ObserverEvent moves on the packet path.

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    if (parent_.async_mode_) {
      ObserverEvent* slot = parent_.begin_publish(
          shard_, ObserverEvent::Kind::kObservation, query);
      if (slot != nullptr) {
        slot->ctx = ctx;
        slot->query = query;
        slot->obs = obs;
      }
      return;
    }
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_observation(ctx, query, obs);
    }
  }

  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    if (parent_.async_mode_) {
      ObserverEvent* slot = parent_.begin_publish(
          shard_, ObserverEvent::Kind::kPath, query);
      if (slot != nullptr) {
        slot->ctx = ctx;
        slot->query = query;
        slot->set_path(path);
      }
      return;
    }
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_path_decoded(ctx, query, path);
    }
  }

  // Per-shard snapshots: each covers the reporting shard's stores only
  // (shards hold disjoint flows); use ShardedSink::memory_report() for the
  // merged view.
  void on_memory_report(const MemoryReport& report) override {
    if (parent_.async_mode_) {
      ObserverEvent* slot = parent_.begin_publish(
          shard_, ObserverEvent::Kind::kMemory, /*query=*/{});
      if (slot != nullptr) {
        slot->overflow = std::make_unique<ObserverEvent::Overflow>();
        slot->overflow->memory = std::make_unique<MemoryReport>(report);
      }
      return;
    }
    MutexLock lock(parent_.observer_mutex_);
    for (SinkObserver* o : parent_.observers_) {
      o->on_memory_report(report);
    }
  }

 private:
  ShardedSink& parent_;
  Shard& shard_;
};

ShardedSink::ShardedSink(const PintFramework::Builder& builder,
                         unsigned num_shards, std::size_t queue_depth) {
  // The hot counter groups must start on private cache lines (see the
  // layout comments in the header); these fire if a refactor repacks
  // them. Inside the ctor because the nested types are private.
  PINT_ASSERT_CACHELINE_ALIGNED(Shard);
  PINT_ASSERT_CACHELINE_ALIGNED(RelayThread);
  if (num_shards == 0) {
    throw std::invalid_argument("ShardedSink needs at least one shard");
  }
  if (queue_depth == 0) {
    throw std::invalid_argument("ShardedSink needs a nonzero queue depth");
  }
  async_mode_ = builder.async_observer_depth() > 0;
  async_policy_ = builder.async_observer_policy();
  // Each shard holds 1/num_shards of the flows, so it gets 1/num_shards of
  // every Recording-Module budget; with no budgets set this is a no-op copy.
  const PintFramework::Builder replica_builder =
      num_shards > 1 ? builder.with_memory_divided(num_shards)
                     : PintFramework::Builder(builder);
  shards_.reserve(num_shards);
  shard_relays_.reserve(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>(queue_depth);
    shard->fw = replica_builder.build_or_throw();
    if (async_mode_) {
      // Chunked transport sizing: the configured depth is an *event*
      // budget. Chunk capacity shrinks with small depths (depth/4, so a
      // depth-2 ring still blocks after ~2 events, as the per-event ring
      // did) and caps at kEventChunkCapacity for large ones; the chunk
      // ring holds enough chunks to cover the depth. The recycle ring is
      // sized past the total chunk population so returning a buffer
      // cannot fail.
      const std::size_t depth = builder.async_observer_depth();
      shard->chunk_capacity = std::min<std::size_t>(
          kEventChunkCapacity, std::max<std::size_t>(1, depth / 4));
      const std::size_t chunks =
          (depth + shard->chunk_capacity - 1) / shard->chunk_capacity;
      shard->obs_ring =
          std::make_unique<SpscQueue<std::unique_ptr<EventChunk>>>(chunks);
      shard->obs_recycle =
          std::make_unique<SpscQueue<std::unique_ptr<EventChunk>>>(
              shard->obs_ring->capacity() + 2);
      shard->open_chunk = std::make_unique<EventChunk>();
      shard->open_chunk->reserve(shard->chunk_capacity);
      // Pre-populate the recycle ring with the full chunk population, each
      // buffer already reserved. The transport is then zero-allocation from
      // the first event — without this, a worker that outruns its relay
      // (the common case while the relay sleeps) would malloc and
      // first-touch every chunk on the hot path before recycling starts.
      for (std::size_t c = 0; c < shard->obs_ring->capacity() + 1; ++c) {
        auto chunk = std::make_unique<EventChunk>();
        chunk->reserve(shard->chunk_capacity);
        if (!shard->obs_recycle->try_push(std::move(chunk))) break;
      }
      shard->wake_occupancy =
          std::max<std::size_t>(1, shard->obs_ring->capacity() / 2);
    }
    // Built now, attached by the first add_observer(): until a sink-wide
    // observer exists the replicas never call into the relay.
    shard_relays_.push_back(std::make_unique<ShardRelay>(*this, *shard));
    shards_.push_back(std::move(shard));
  }
  // Priority shedding classes, from any replica (identical specs): a
  // query's events are droppable iff it sits at the minimum registered
  // priority. All-default priorities put every query in the droppable
  // class — kDropNewest then behaves exactly as before priorities existed.
  {
    const PintFramework& fw0 = *shards_[0]->fw;
    const unsigned min_priority = fw0.min_query_priority();
    for (std::string_view name : fw0.query_names()) {
      sheddable_.emplace(name, fw0.spec(name)->priority == min_priority);
    }
  }
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
  if (async_mode_) {
    // Relay sharding: relay t exclusively owns shards s % relays == t, so
    // every ring keeps exactly one consumer. More relays than shards would
    // only add idle threads — clamp. The assignment must exist before any
    // worker starts (workers publish through shard->relay).
    const unsigned relay_count =
        std::min<unsigned>(std::max(1u, builder.async_relay_threads()),
                           num_shards);
    relays_.reserve(relay_count);
    for (unsigned t = 0; t < relay_count; ++t) {
      relays_.push_back(std::make_unique<RelayThread>());
    }
    for (unsigned s = 0; s < num_shards; ++s) {
      RelayThread& relay = *relays_[s % relay_count];
      shards_[s]->relay = &relay;
      relay.shards.push_back(shards_[s].get());
    }
    for (auto& relay : relays_) {
      relay->thread =
          std::thread([this, r = relay.get()] { relay_loop(*r); });
    }
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
  // item vector.
  for (auto& shard : shards_) {
    Batch batch;
    while (shard->queue.try_pop(batch)) {
    }
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (!relays_.empty()) {
    // Workers are gone, so no more events can be published; each relay
    // drains what remains of its own rings (kBlock stays loss-free
    // through destruction) and exits.
    relay_stop_.store(true, std::memory_order_seq_cst);
    for (auto& relay : relays_) {
      {
        MutexLock lock(relay->mutex);
      }
      relay->wake.notify_one();
    }
    for (auto& relay : relays_) {
      if (relay->thread.joinable()) relay->thread.join();
    }
  }
}

unsigned ShardedSink::shard_of(const FiveTuple& tuple) const {
  const std::uint64_t key = flow_key(tuple, partition_def_);
  return static_cast<unsigned>(mix64(key) % shards_.size());
}

void ShardedSink::submit(std::span<const Packet> packets, unsigned k,
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
    if (b.items.empty()) b.items.reserve(reserve_hint);
    b.items.push_back(Item{&packets[i], pkey,
                           reports.empty() ? nullptr : &reports[i]});
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (staged[s].items.empty()) continue;
    staged[s].k = k;
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
    try_wake(shard.wake_state, shard.mutex, shard.wake);
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
  if (!async_mode_) return;
  // Every flushed packet's events are published (workers publish inside
  // at_sink, before marking the batch done); wait for the relays to
  // deliver them so post-flush reads of observer state are race-free.
  // consumed is bumped with release *after* each batch's callbacks return,
  // so the acquire loads here order those callbacks before flush()'s
  // return.
  for (auto& shard : shards_) {
    Backoff backoff;
    while (shard->obs_consumed.load(std::memory_order_acquire) <
           shard->obs_published.load(std::memory_order_acquire)) {
      try_wake(shard->relay->state, shard->relay->mutex, shard->relay->wake);
      backoff.wait();
    }
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
    // go through its relay (and so through observer_mutex_ or the ring).
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->fw->add_observer(shard_relays_[s].get());
    }
  }
  observers_.push_back(observer);
}

void ShardedSink::add_shard_observer(unsigned shard, SinkObserver* observer) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("add_shard_observer: no such shard");
  }
  check_registration_open();
  // The mutex only serializes this append against add_observer()'s relay
  // attachment; the worker reads the list unlocked, after registration.
  MutexLock lock(observer_mutex_);
  shards_[shard]->fw->add_observer(observer);
}

// --- sleep/wake protocol ----------------------------------------------------
//
// Both the shard workers and the relay threads sleep through the same
// edge-coalesced handshake, built from a tri-state word per sleeper
// (WakeState) plus a CV:
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
// and *no* producer ever touches the mutex. This is what fixes kBlock
// async losing to sync on one core: the old code paid a mutex+notify per
// event the entire time the relay was runnable but not yet scheduled.

void ShardedSink::try_wake(std::atomic<WakeState>& state, Mutex& mutex,
                           CondVar& cv) {
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
    MutexLock lock(mutex);
  }
  cv.notify_one();
}

// Priority admission: only minimum-priority query events may be shed, and
// memory reports never are — they carry the drop accounting an operator
// needs to *see* the shedding. Consulted only on the full-transport slow
// path, so the common (not-full) publish stays map-free.
bool ShardedSink::event_sheddable(ObserverEvent::Kind kind,
                                  std::string_view query) const {
  if (kind == ObserverEvent::Kind::kMemory) return false;
  const auto it = sheddable_.find(query);
  return it != sheddable_.end() && it->second;
}

bool ShardedSink::try_seal_open_chunk(Shard& shard) {
  if (shard.open_chunk->empty()) return true;
  const std::size_t sealed = shard.open_chunk->size();
  // try_push leaves the value untouched on a full ring, so a failed seal
  // keeps the chunk (and its events) exactly where they were.
  if (!shard.obs_ring->try_push(std::move(shard.open_chunk))) return false;
  shard.obs_sealed += sealed;
  if (!shard.obs_recycle->try_pop(shard.open_chunk) ||
      shard.open_chunk == nullptr) {
    // Startup only: once every buffer exists, the recycle ring (sized past
    // the chunk population) always has one.
    shard.open_chunk = std::make_unique<EventChunk>();
    shard.open_chunk->reserve(shard.chunk_capacity);
  }
  return true;
}

ShardedSink::ObserverEvent* ShardedSink::begin_publish(
    Shard& shard, ObserverEvent::Kind kind, std::string_view query) {
  if (shard.open_chunk->size() >= shard.chunk_capacity &&
      !try_seal_open_chunk(shard)) {
    // Transport full: the open chunk is at capacity and the chunk ring
    // has no slot. Shed the *incoming* event if the policy and its
    // priority class allow (exact accounting: every emitted event lands
    // in published or dropped, never both, never neither)...
    if (async_policy_ == OverflowPolicy::kDropNewest &&
        event_sheddable(kind, query)) {
      shard.obs_dropped.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    // ...otherwise block — kBlock, or a protected (higher-priority /
    // memory-report) event under kDropNewest: bounded exponential backoff
    // until the relay frees a chunk slot. The relay's sleep predicate is
    // ring occupancy, and a full ring is as occupied as it gets —
    // try_wake coalesces the retries to at most one mutex+notify per
    // relay sleep episode.
    RelayThread& relay = *shard.relay;
    shard.obs_blocked.fetch_add(1, std::memory_order_relaxed);
    Backoff backoff;
    do {
      try_wake(relay.state, relay.mutex, relay.wake);
      backoff.wait();
    } while (!try_seal_open_chunk(shard));
  }
  // The fast path: append a default-constructed slot to the open chunk and
  // hand it to the caller to fill in place. No atomic RMW, no wake probe,
  // no event moves. The count folds into obs_published — and the relay
  // gets its (single, coalesced) wake — in flush_published(), once per
  // MPMC batch, which also seals the partial chunk so every counted event
  // is poppable.
  shard.open_chunk->emplace_back();
  ++shard.obs_batched;
  ObserverEvent* slot = &shard.open_chunk->back();
  slot->kind = kind;
  return slot;
}

void ShardedSink::flush_published(Shard& shard) {
  if (shard.obs_batched == 0) return;
  // Inline-delivery fast path: when the relay has delivered every event
  // this shard ever sealed and holds nothing in flight (consumed ==
  // sealed + inline — all three monotonic, the right side worker-exact),
  // the worker delivers the open chunk itself under one observer-mutex
  // acquisition. The events are still hot in this core's cache, the ring
  // round-trip and the relay's wake/context-switch disappear, and
  // per-shard FIFO is preserved: the equality proves every earlier event
  // was already delivered. Under load the relay falls behind, the
  // equality fails, and the pipelined ring path below takes over — the
  // sink degrades from "combiner" to "pipeline" exactly when a second
  // core has work to steal. The acquire load pairs with the relay's
  // release bump after its callbacks, ordering those callbacks before
  // the inline ones.
  //
  // kBlock only: kDropNewest's contract is that the packet path sheds
  // observer work rather than slow down for it — a worker that delivered
  // inline would stall on the very callbacks the policy said to drop,
  // silently inverting the policy (and collapsing the shedding config's
  // packet throughput). Under kDropNewest every event takes the ring and
  // its admission-time drop accounting.
  if (async_policy_ == OverflowPolicy::kBlock &&
      shard.obs_consumed.load(std::memory_order_acquire) ==
          shard.obs_sealed + shard.obs_inline) {
    const std::size_t n = shard.open_chunk->size();
    if (n > 0) {
      MutexLock lock(observer_mutex_);
      for (const ObserverEvent& e : *shard.open_chunk) {
        deliver_event(e, shard.path_scratch);
      }
    }
    shard.open_chunk->clear();
    shard.obs_inline += n;
    // obs_batched can exceed n: chunks sealed mid-batch were already
    // delivered (and counted in consumed) by the relay, but their fold
    // waited for this call. published += batched and consumed += n then
    // land on the same total.
    shard.obs_published.fetch_add(shard.obs_batched,
                                  std::memory_order_seq_cst);
    shard.obs_batched = 0;
    shard.obs_consumed.fetch_add(n, std::memory_order_release);
    return;
  }
  // Seal the partial chunk *before* folding the count: flush() waits for
  // consumed == published, and the relay can only consume events that
  // reached the ring — a counted event stranded in the open chunk would
  // deadlock that wait.
  if (!shard.open_chunk->empty() && !try_seal_open_chunk(shard)) {
    if (async_policy_ == OverflowPolicy::kDropNewest) {
      // A full ring under kDropNewest means the transport said "shed":
      // blocking here would stall the packet path once per batch waiting
      // for the relay — on a busy single core that forces a worker→relay
      // handoff per batch and silently converts the shedding policy into
      // a delivery policy at packet-throughput cost. Shed the open
      // chunk's sheddable events instead (they are the newest admitted),
      // un-counting them from the pending fold; protected classes and
      // memory heartbeats stay and, if any remain, take the blocking
      // seal below — exactly the admission path's contract.
      EventChunk& chunk = *shard.open_chunk;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (event_sheddable(chunk[i].kind, chunk[i].query)) continue;
        if (kept != i) chunk[kept] = std::move(chunk[i]);
        ++kept;
      }
      const std::size_t shed = chunk.size() - kept;
      chunk.resize(kept);
      if (shed > 0) {
        shard.obs_batched -= shed;
        shard.obs_dropped.fetch_add(shed, std::memory_order_relaxed);
      }
    }
    if (!shard.open_chunk->empty()) {
      RelayThread& relay = *shard.relay;
      shard.obs_blocked.fetch_add(1, std::memory_order_relaxed);
      Backoff backoff;
      do {
        try_wake(relay.state, relay.mutex, relay.wake);
        backoff.wait();
      } while (!try_seal_open_chunk(shard));
    }
  }
  if (shard.obs_batched == 0) return;  // everything shed; nothing to fold
  shard.obs_published.fetch_add(shard.obs_batched,
                                std::memory_order_seq_cst);
  shard.obs_batched = 0;
  // Fence-paired with the relay's fence after its kSleeping re-arm
  // (store-buffer litmus): when a wake is issued below, either the
  // relay's predicate sees this batch's ring pushes (release stores,
  // program-ordered before this fence), or try_wake sees kSleeping and
  // pays the notify. The fence also runs when the wake is *skipped*, so
  // any later unconditional wake (worker going idle, blocked path,
  // flush(), destructor) finds a relay whose predicate will see these
  // pushes.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Wake hysteresis: don't pull the relay in for every batch — let work
  // pile to half the ring first, so worker and relay each run long
  // stretches instead of trading the core (and their cache residency)
  // per batch. A sub-threshold tail is never stranded: the worker wakes
  // the relay unconditionally when it goes idle, as do the blocked path
  // and flush().
  if (shard.obs_ring->approx_size() >= shard.wake_occupancy) {
    try_wake(shard.relay->state, shard.relay->mutex, shard.relay->wake);
  }
}

void ShardedSink::deliver_event(const ObserverEvent& event,
                                std::vector<SwitchId>& path_scratch) {
  switch (event.kind) {
    case ObserverEvent::Kind::kObservation:
      for (SinkObserver* o : observers_) {
        o->on_observation(event.ctx, event.query, event.obs);
      }
      break;
    case ObserverEvent::Kind::kPath: {
      // Bridge the inline hop buffer to the observer API's vector without
      // allocating: assign() reuses the scratch vector's capacity.
      const std::vector<SwitchId>* path;
      if (event.overflow == nullptr) {
        path_scratch.assign(event.path.begin(),
                            event.path.begin() + event.path_len);
        path = &path_scratch;
      } else {
        path = &event.overflow->path;
      }
      for (SinkObserver* o : observers_) {
        o->on_path_decoded(event.ctx, event.query, *path);
      }
      break;
    }
    case ObserverEvent::Kind::kMemory:
      for (SinkObserver* o : observers_) {
        o->on_memory_report(*event.overflow->memory);
      }
      break;
  }
}

std::size_t ShardedSink::drain_rings(RelayThread& relay) {
  std::size_t delivered = 0;
  for (Shard* shard : relay.shards) {
    // One chunk per shard per pass keeps the round-robin fair. Popping
    // the chunk frees its ring slot immediately (the slot held only the
    // owner pointer), so a blocked kBlock producer can seal its next
    // chunk while this one is still being delivered. One observer-mutex
    // acquisition covers the whole chunk; per-shard FIFO is preserved
    // (chunks are sealed and popped in one order).
    std::unique_ptr<EventChunk> chunk;
    if (!shard->obs_ring->try_pop(chunk) || chunk == nullptr) continue;
    {
      MutexLock lock(observer_mutex_);
      for (const ObserverEvent& e : *chunk) {
        deliver_event(e, relay.path_scratch);
      }
    }
    const std::size_t n = chunk->size();
    // Hand the emptied buffer back to the worker. clear() keeps capacity,
    // so steady state recirculates the same allocations; the recycle ring
    // is sized past the chunk population, but if a push ever failed the
    // unique_ptr would simply free the buffer.
    chunk->clear();
    (void)shard->obs_recycle->try_push(std::move(chunk));
    // After the callbacks: flush()'s acquire read of consumed must order
    // the callbacks' side effects before flush() returns.
    shard->obs_consumed.fetch_add(n, std::memory_order_release);
    relay.delivered.fetch_add(n, std::memory_order_relaxed);
    delivered += n;
  }
  return delivered;
}

void ShardedSink::relay_loop(RelayThread& relay) {
  // Work is "a ring with something in it" — not the published/consumed
  // counters, which lag the ring by up to a batch (flush_published folds
  // them per MPMC batch). Ring occupancy is also never *ahead* of real
  // work the way a counter could appear to be: a false positive here
  // would spin the relay against a core the worker needs.
  const auto work_pending = [&relay] {
    for (Shard* shard : relay.shards) {
      if (shard->obs_ring->approx_size() > 0) return true;
    }
    return false;
  };
  for (;;) {
    if (drain_rings(relay) > 0) continue;
    bool stopping = false;
    {
      MutexLock lock(relay.mutex);
      for (;;) {
        // Re-arm before *every* predicate check (see the protocol
        // comment): a wake consumes the kNotified episode, and sleeping
        // again without re-arming would let producers skip the notify.
        relay.state.store(WakeState::kSleeping, std::memory_order_seq_cst);
        // Paired with flush_published()'s fence: orders this re-arm
        // before the predicate's ring reads, so a producer whose
        // try_wake misses kSleeping is one whose ring pushes the
        // predicate must see.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (relay_stop_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
        if (work_pending()) break;
        relay.wake.wait(relay.mutex);
      }
      relay.state.store(WakeState::kAwake, std::memory_order_seq_cst);
    }
    if (stopping) {
      // Stop is only set after the workers joined: one final drain makes
      // kBlock delivery loss-free through destruction.
      while (drain_rings(relay) > 0) {
      }
      return;
    }
  }
}

TransportCounters ShardedSink::observer_counters() const {
  TransportCounters t;
  t.active = async_mode_;
  for (const auto& shard : shards_) {
    t.observer_events +=
        shard->obs_published.load(std::memory_order_acquire);
    t.observer_drops += shard->obs_dropped.load(std::memory_order_acquire);
    t.observer_blocked_waits +=
        shard->obs_blocked.load(std::memory_order_acquire);
  }
  return t;
}

std::vector<std::uint64_t> ShardedSink::relay_deliveries() const {
  std::vector<std::uint64_t> totals;
  totals.reserve(relays_.size());
  for (const auto& relay : relays_) {
    totals.push_back(relay->delivered.load(std::memory_order_acquire));
  }
  return totals;
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
      for (const Item& item : batch.items) {
        SinkReport& out = item.report ? *item.report : scratch;
        // Reuse the partition key submit() hashed for shard routing.
        shard.fw->at_sink(*item.packet, batch.k, out,
                          FlowKeyHint{partition_def_, item.key});
      }
      shard.processed.fetch_add(batch.items.size(),
                                std::memory_order_release);
      // Fold this batch's event count and wake the relay — once per
      // batch, before the batch stops counting as pending (flush()'s
      // ordering depends on it).
      if (shard.relay != nullptr) flush_published(shard);
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
    // Going idle with events still in the ring: wake the relay
    // unconditionally. This is the liveness half of flush_published()'s
    // wake hysteresis — a sub-threshold tail is delivered as soon as the
    // worker has nothing more to add to it, not when the next burst
    // happens to arrive.
    if (shard.relay != nullptr && shard.obs_ring->approx_size() > 0) {
      try_wake(shard.relay->state, shard.relay->mutex, shard.relay->wake);
    }
    MutexLock lock(shard.mutex);
    for (;;) {
      // Same re-armed tri-state sleep as the relay (protocol comment
      // above): producers coalesce to at most one notify per episode.
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
