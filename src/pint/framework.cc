#include "pint/framework.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pint/wire_format.h"

namespace pint {

namespace {

// Per-aggregation hash salts. The first query of each family derives the
// exact seed the pre-Builder facade used, so the Section 6.4 three-query mix
// behaves identically; later same-family queries mix in their ordinal.
std::uint64_t aggregation_salt(AggregationType aggregation) {
  switch (aggregation) {
    case AggregationType::kStaticPerFlow:
      return 0x57A71C;
    case AggregationType::kDynamicPerFlow:
      return 0xD14A;
    case AggregationType::kPerPacket:
      return 0xCC;
  }
  return 0;
}

std::uint64_t binding_seed(std::uint64_t seed, AggregationType aggregation,
                           unsigned family_ordinal) {
  return seed ^ aggregation_salt(aggregation) ^
         (static_cast<std::uint64_t>(family_ordinal) * 0x9E3779B97F4A7C15ULL);
}

std::string_view default_extractor(AggregationType aggregation) {
  switch (aggregation) {
    case AggregationType::kStaticPerFlow:
      return extractor::kSwitchId;
    case AggregationType::kDynamicPerFlow:
      return extractor::kHopLatency;
    case AggregationType::kPerPacket:
      return extractor::kLinkUtilization;
  }
  return extractor::kSwitchId;
}

}  // namespace

const char* to_string(BuildErrorCode code) {
  switch (code) {
    case BuildErrorCode::kNoQueries:
      return "no queries registered";
    case BuildErrorCode::kEmptyQueryName:
      return "query name empty";
    case BuildErrorCode::kDuplicateQueryName:
      return "duplicate query name";
    case BuildErrorCode::kDuplicateExtractor:
      return "duplicate extractor name";
    case BuildErrorCode::kUnknownExtractor:
      return "unknown extractor";
    case BuildErrorCode::kBadBitBudget:
      return "query bit budget outside the global budget";
    case BuildErrorCode::kBadFrequency:
      return "query frequency outside (0, 1]";
    case BuildErrorCode::kBudgetBelowInstanceCount:
      return "bit budget below instance count";
    case BuildErrorCode::kEmptySwitchUniverse:
      return "static per-flow query needs a switch universe";
    case BuildErrorCode::kInfeasiblePlan:
      return "query mix infeasible within the global bit budget";
    case BuildErrorCode::kTooManyConcurrentQueries:
      return "execution plan set exceeds SinkReport capacity";
    case BuildErrorCode::kInconsistentMemoryBudget:
      return "inconsistent Recording-Module memory budget";
  }
  return "unknown build error";
}

// --- Builder ----------------------------------------------------------------

PintFramework::Builder::Builder() = default;
PintFramework::Builder::~Builder() = default;
PintFramework::Builder::Builder(Builder&&) noexcept = default;
PintFramework::Builder& PintFramework::Builder::operator=(Builder&&) noexcept =
    default;
PintFramework::Builder::Builder(const Builder&) = default;
PintFramework::Builder& PintFramework::Builder::operator=(const Builder&) =
    default;

PintFramework::Builder& PintFramework::Builder::global_bit_budget(
    unsigned bits) {
  budget_ = bits;
  return *this;
}

PintFramework::Builder& PintFramework::Builder::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

PintFramework::Builder& PintFramework::Builder::memory_ceiling_bytes(
    std::size_t bytes) {
  memory_ceiling_ = bytes;
  return *this;
}

PintFramework::Builder& PintFramework::Builder::memory_report_interval_packets(
    std::uint64_t packets) {
  memory_report_interval_ = packets;
  return *this;
}

PintFramework::Builder& PintFramework::Builder::memory_report_interval(
    std::chrono::nanoseconds interval) {
  memory_report_interval_time_ =
      interval.count() < 0 ? std::chrono::nanoseconds{0} : interval;
  return *this;
}

PintFramework::Builder& PintFramework::Builder::default_store_policy(
    StorePolicyKind kind) {
  default_policy_ = kind;
  return *this;
}

PintFramework::Builder PintFramework::Builder::with_memory_divided(
    unsigned parts) const {
  if (parts == 0) throw std::invalid_argument("parts > 0");
  Builder out(*this);
  // The ceiling never rounds from bounded down to "unbounded" (0). A
  // per-query budget, however, must not be clamped up: budgets rounded up
  // could sum past the divided ceiling and fail a build the undivided
  // Builder accepts. A budget that divides to zero instead falls back to
  // "share the remainder", which can never over-commit.
  if (memory_ceiling_ != 0) {
    out.memory_ceiling_ = std::max<std::size_t>(1, memory_ceiling_ / parts);
  }
  for (QuerySpec& spec : out.specs_) {
    if (spec.memory_budget_bytes == 0) continue;
    spec.memory_budget_bytes = spec.memory_budget_bytes / parts;
    if (spec.memory_budget_bytes == 0 && memory_ceiling_ == 0) {
      // Without a ceiling there is no remainder to fall back to, and a
      // zero budget would mean *unbounded* — a bounded config must never
      // divide into an unbounded one. With no ceiling there is also
      // nothing to over-commit, so clamping up is safe.
      spec.memory_budget_bytes = 1;
    }
  }
  return out;
}

PintFramework::Builder& PintFramework::Builder::switch_universe(
    std::vector<std::uint64_t> ids) {
  universe_ = std::move(ids);
  return *this;
}

PintFramework::Builder& PintFramework::Builder::register_extractor(
    std::string name, ValueExtractor fn) {
  if (!registry_.add(name, std::move(fn)) &&
      !duplicate_extractor_.has_value()) {
    duplicate_extractor_ = std::move(name);
  }
  return *this;
}

PintFramework::Builder& PintFramework::Builder::add_query(QuerySpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

PintFramework::Builder& PintFramework::Builder::add_observer(
    SinkObserver* observer) {
  observers_.push_back(observer);
  return *this;
}

BuildResult PintFramework::Builder::build() const {
  const auto fail = [](BuildErrorCode code, std::string detail) {
    BuildResult r;
    std::string message = to_string(code);
    if (!detail.empty()) message += ": " + detail;
    r.error = BuildError{code, std::move(message)};
    return r;
  };

  if (duplicate_extractor_.has_value()) {
    return fail(BuildErrorCode::kDuplicateExtractor, *duplicate_extractor_);
  }
  if (specs_.empty()) return fail(BuildErrorCode::kNoQueries, "");

  std::unordered_set<std::string_view> names;
  std::unordered_map<AggregationType, unsigned> family_counts;
  auto fw = std::unique_ptr<PintFramework>(new PintFramework());
  fw->seed_ = seed_;
  fw->switch_ids_ =
      std::make_shared<const std::vector<std::uint64_t>>(universe_);
  fw->observers_ = observers_;

  std::vector<Query> engine_queries;
  engine_queries.reserve(specs_.size());

  for (const QuerySpec& spec : specs_) {
    const Query& q = spec.query;
    if (q.name.empty()) return fail(BuildErrorCode::kEmptyQueryName, "");
    if (!names.insert(q.name).second) {
      return fail(BuildErrorCode::kDuplicateQueryName, q.name);
    }
    if (q.bit_budget == 0 || q.bit_budget > budget_) {
      return fail(BuildErrorCode::kBadBitBudget, q.name);
    }
    if (q.frequency <= 0.0 || q.frequency > 1.0) {
      return fail(BuildErrorCode::kBadFrequency, q.name);
    }
    const std::string_view extractor_name =
        q.extractor.empty() ? default_extractor(q.aggregation)
                            : std::string_view(q.extractor);
    const ValueExtractor* extract = registry_.find(extractor_name);
    if (extract == nullptr) {
      return fail(BuildErrorCode::kUnknownExtractor,
                  "'" + std::string(extractor_name) + "' for query '" +
                      q.name + "'");
    }

    Binding b;
    b.spec = spec;
    b.extract = *extract;
    const unsigned ordinal = family_counts[q.aggregation]++;
    b.recorder_salt =
        static_cast<std::uint64_t>(ordinal) * 0x9E3779B97F4A7C15ULL;
    const std::uint64_t module_seed =
        binding_seed(seed_, q.aggregation, ordinal);
    switch (q.aggregation) {
      case AggregationType::kStaticPerFlow: {
        if (universe_.empty()) {
          return fail(BuildErrorCode::kEmptySwitchUniverse, q.name);
        }
        PathTracingConfig pc = b.spec.path;
        // Respect the query's bit budget: instances * bits must fit it.
        if (pc.bits * pc.instances != q.bit_budget) {
          pc.bits = pc.instances == 0 ? 0 : q.bit_budget / pc.instances;
          if (pc.bits == 0) {
            return fail(BuildErrorCode::kBudgetBelowInstanceCount, q.name);
          }
        }
        b.spec.path = pc;
        b.path.emplace(pc, module_seed);
        b.lanes = pc.instances;
        break;
      }
      case AggregationType::kDynamicPerFlow: {
        DynamicAggregationConfig dc = b.spec.dynamic;
        dc.bits = q.bit_budget;
        b.spec.dynamic = dc;
        b.dynamic.emplace(dc, module_seed);
        break;
      }
      case AggregationType::kPerPacket: {
        PerPacketConfig pp = b.spec.perpacket;
        pp.bits = q.bit_budget;
        b.spec.perpacket = pp;
        b.perpacket.emplace(pp, module_seed);
        break;
      }
    }
    fw->bindings_.push_back(std::move(b));
    engine_queries.push_back(q);
  }

  // Recording-Module budgets: explicit per-query budgets carve shares out
  // of the ceiling; the remainder splits evenly across the unbudgeted
  // per-flow queries. Per-packet queries keep no sink state and may not
  // carry a budget.
  std::size_t explicit_total = 0;
  std::size_t unbudgeted_per_flow = 0;
  for (const Binding& b : fw->bindings_) {
    const Query& q = b.spec.query;
    if (q.aggregation == AggregationType::kPerPacket) {
      if (b.spec.memory_budget_bytes > 0) {
        return fail(BuildErrorCode::kInconsistentMemoryBudget,
                    "'" + q.name +
                        "' is per-packet and keeps no per-flow sink state");
      }
      if (b.spec.store_policy.has_value() &&
          *b.spec.store_policy != StorePolicyKind::kLru) {
        return fail(BuildErrorCode::kInconsistentMemoryBudget,
                    "'" + q.name +
                        "' is per-packet and keeps no per-flow sink state "
                        "for a store policy to govern");
      }
      continue;
    }
    if (b.spec.memory_budget_bytes > 0) {
      explicit_total += b.spec.memory_budget_bytes;
    } else {
      ++unbudgeted_per_flow;
    }
  }
  std::size_t share = 0;
  if (memory_ceiling_ > 0) {
    if (explicit_total > memory_ceiling_) {
      return fail(BuildErrorCode::kInconsistentMemoryBudget,
                  std::string("per-query budgets total ") +
                      std::to_string(explicit_total) + " bytes, above the " +
                      std::to_string(memory_ceiling_) + "-byte ceiling");
    }
    if (unbudgeted_per_flow > 0) {
      share = (memory_ceiling_ - explicit_total) / unbudgeted_per_flow;
      if (share == 0) {
        return fail(BuildErrorCode::kInconsistentMemoryBudget,
                    std::string("ceiling leaves no budget for ") +
                        std::to_string(unbudgeted_per_flow) +
                        " unbudgeted per-flow query(ies)");
      }
    }
  }
  for (Binding& b : fw->bindings_) {
    const Query& q = b.spec.query;
    if (q.aggregation == AggregationType::kPerPacket) continue;
    const std::size_t cap =
        b.spec.memory_budget_bytes > 0 ? b.spec.memory_budget_bytes : share;
    // Per-query policy (Builder default unless the spec overrides it).
    // kLru yields a nullptr from make_store_policy — no policy object, the
    // store's original code path. Each store gets its own policy instance
    // seeded per binding so same-policy queries keep independent sketch
    // randomness.
    const StorePolicyKind policy_kind =
        b.spec.store_policy.value_or(default_policy_);
    const std::uint64_t policy_seed =
        seed_ ^ 0xB0'11C1ULL ^ b.recorder_salt;
    if (q.aggregation == AggregationType::kStaticPerFlow) {
      b.decoders.set_capacity_bytes(cap);
      b.decoders.set_policy(make_store_policy(policy_kind, policy_seed));
    } else {
      b.recorders.set_capacity_bytes(cap);
      b.recorders.set_policy(make_store_policy(policy_kind, policy_seed));
    }
  }
  fw->memory_ceiling_ = memory_ceiling_;
  fw->memory_bounded_ = memory_ceiling_ > 0 || explicit_total > 0;
  fw->memory_report_interval_ = memory_report_interval_;
  fw->memory_report_interval_time_ = memory_report_interval_time_;
  fw->last_timed_memory_report_ = std::chrono::steady_clock::now();

  try {
    fw->engine_ =
        std::make_unique<QueryEngine>(std::move(engine_queries), budget_,
                                      seed_);
  } catch (const std::invalid_argument& e) {
    return fail(BuildErrorCode::kInfeasiblePlan, e.what());
  }

  for (const QuerySet& set : fw->engine_->plan().sets) {
    if (set.query_indices.size() > SinkReport::kMaxQueriesPerPacket) {
      return fail(BuildErrorCode::kTooManyConcurrentQueries, "");
    }
    fw->max_lanes_ = std::max(fw->max_lanes_, fw->lanes_for_set(set));
    // The wire layout of every packet of this set, computed once: a lane
    // per instance, in set order.
    std::vector<unsigned>& widths = fw->set_widths_.emplace_back();
    for (std::size_t qi : set.query_indices) {
      const Binding& b = fw->bindings_[qi];
      const unsigned width = b.spec.query.aggregation ==
                                     AggregationType::kStaticPerFlow
                                 ? b.spec.path.bits
                                 : b.spec.query.bit_budget;
      widths.insert(widths.end(), b.lanes, width);
    }
  }
  fw->extract_scratch_.resize(fw->bindings_.size());

  BuildResult r;
  r.framework = std::move(fw);
  return r;
}

std::unique_ptr<PintFramework> PintFramework::Builder::build_or_throw() const {
  BuildResult r = build();
  if (!r.ok()) throw std::invalid_argument(r.error->message);
  return std::move(r.framework);
}

// --- switch side ------------------------------------------------------------

std::size_t PintFramework::lanes_for_set(const QuerySet& set) const {
  std::size_t lanes = 0;
  for (std::size_t qi : set.query_indices) lanes += bindings_[qi].lanes;
  return lanes;
}

void PintFramework::encode_one(Packet& packet, HopIndex i,
                               const SwitchView* view,
                               const double* hoisted) {
  const QuerySet& set = engine_->set_for_packet(packet.id);
  const std::size_t lanes_needed = lanes_for_set(set);
  if (packet.digests.size() != lanes_needed) {
    // First hop (PINT Source) sizes the digest; all later hops agree because
    // the set is a function of the packet id alone.
    packet.digests.assign(lanes_needed, 0);
  }
  std::size_t lane = 0;
  for (std::size_t qi : set.query_indices) {
    Binding& b = bindings_[qi];
    const double value = hoisted != nullptr ? hoisted[qi] : b.extract(*view);
    switch (b.spec.query.aggregation) {
      case AggregationType::kStaticPerFlow:
        b.path->encode(packet.id, i, static_cast<SwitchId>(value),
                       std::span<Digest>(packet.digests.data() + lane,
                                         b.lanes));
        break;
      case AggregationType::kDynamicPerFlow:
        packet.digests[lane] =
            b.dynamic->encode_step(packet.id, i, packet.digests[lane], value);
        break;
      case AggregationType::kPerPacket:
        packet.digests[lane] =
            b.perpacket->encode_step(packet.id, packet.digests[lane], value);
        break;
    }
    lane += b.lanes;
  }
  ++packet.hops_traversed;
}

void PintFramework::at_switch(Packet& packet, HopIndex i,
                              const SwitchView& view) {
  encode_one(packet, i, &view, nullptr);
}

void PintFramework::at_switch(std::span<Packet> packets, HopIndex i,
                              const SwitchView& view) {
  // The view is constant across the batch: evaluate each extractor once,
  // not once per packet.
  for (std::size_t qi = 0; qi < bindings_.size(); ++qi) {
    extract_scratch_[qi] = bindings_[qi].extract(view);
  }
  for (Packet& packet : packets) {
    encode_one(packet, i, nullptr, extract_scratch_.data());
  }
}

// --- sink side --------------------------------------------------------------

void PintFramework::sink_one(const Packet& packet, unsigned k,
                             SinkReport& report, const FlowKeyHint* hint) {
  report.clear();
  const QuerySet& set = engine_->set_for_packet(packet.id);
  if (set.query_indices.empty() ||
      packet.digests.size() != lanes_for_set(set)) {  // no digest to decode
    // Still stamp the counters: a bounded framework's reports must carry
    // them on every packet, decodable or not.
    if (memory_bounded_) fill_memory_counters(report.memory);
    heartbeat_tick();
    return;
  }
  // Queries usually share a flow definition: hash the tuple at most once
  // per definition per packet — and not at all for a definition the caller
  // already hashed (ShardedSink's shard-routing key arrives as `hint`).
  constexpr std::size_t kNumFlowDefs = 4;
  std::array<std::uint64_t, kNumFlowDefs> key_cache;
  std::uint8_t key_computed = 0;
  if (hint != nullptr) {
    const auto d = static_cast<std::size_t>(hint->def);
    key_cache[d] = hint->key;
    key_computed = static_cast<std::uint8_t>(1u << d);
  }
  const auto cached_flow_key = [&](FlowDefinition def) {
    const auto d = static_cast<std::size_t>(def);
    if (!((key_computed >> d) & 1u)) {
      key_cache[d] = flow_key(packet.tuple, def);
      key_computed |= static_cast<std::uint8_t>(1u << d);
    }
    return key_cache[d];
  };
  std::size_t lane = 0;
  for (std::size_t qi : set.query_indices) {
    Binding& b = bindings_[qi];
    const std::string_view name = b.spec.query.name;
    const std::uint64_t fkey = cached_flow_key(b.spec.query.flow_definition);
    const SinkContext ctx{packet.id, fkey, k};
    Observation obs;
    switch (b.spec.query.aggregation) {
      case AggregationType::kStaticPerFlow: {
        // Admission-aware: a policy that rejects the (non-resident) flow
        // sheds this query's digest at the store door — no observation, no
        // observer callback, exactly one admissions_rejected count. With
        // no policy installed try_touch never returns nullptr.
        HashedPathDecoder* decoder_p = b.decoders.try_touch(
            fkey, [&] { return b.path->make_decoder(k, switch_ids_); });
        if (decoder_p == nullptr) {
          lane += b.lanes;
          continue;
        }
        HashedPathDecoder& decoder = *decoder_p;
        const bool was_complete = decoder.complete();
        if (!was_complete) {
          const std::span<const Digest> digests(packet.digests.data() + lane,
                                                b.lanes);
          try {
            decoder.add_packet(packet.id, digests);
          } catch (const std::runtime_error&) {
            // No candidate survives: this packet contradicts what the
            // flow's decoder learned (a corrupted digest). Drop the decoder
            // so the flow restarts cleanly, as FlowletTracker does on a
            // route change; the packet yields no observation here.
            b.decoders.erase(fkey);
            ++b.decode_conflicts;
            lane += b.lanes;
            continue;
          }
        }
        obs = PathDigestObservation{decoder.resolved_count(), decoder.k(),
                                    decoder.complete()};
        // Incomplete->complete edge: once per decoder residency. A flow
        // evicted and rebuilt under a memory ceiling announces again on
        // re-completion (see the Binding comment).
        if (!was_complete && decoder.complete()) {
          std::vector<SwitchId> path;
          path.reserve(decoder.k());
          for (std::uint64_t v : decoder.path()) {
            path.push_back(static_cast<SwitchId>(v));
          }
          for (SinkObserver* o : observers_) {
            o->on_path_decoded(ctx, name, path);
          }
        }
        break;
      }
      case AggregationType::kDynamicPerFlow: {
        FlowLatencyRecorder* recorder_p = b.recorders.try_touch(fkey, [&] {
          const std::uint64_t recorder_seed = seed_ ^ fkey ^ b.recorder_salt;
          return b.spec.recorder_factory
                     ? b.spec.recorder_factory(k, recorder_seed)
                     : FlowLatencyRecorder(k, b.spec.query.space_budget_bytes,
                                           recorder_seed);
        });
        if (recorder_p == nullptr) {  // shed by the admission policy
          lane += b.lanes;
          continue;
        }
        FlowLatencyRecorder& recorder = *recorder_p;
        const DynamicAggregationQuery::Sample sample =
            b.dynamic->decode(packet.id, packet.digests[lane], k);
        recorder.add(sample);
        obs = HopSampleObservation{sample.hop, sample.value};
        break;
      }
      case AggregationType::kPerPacket:
        obs = AggregateObservation{b.perpacket->decode(packet.digests[lane])};
        break;
    }
    report.add(name, obs);
    for (SinkObserver* o : observers_) o->on_observation(ctx, name, obs);
    lane += b.lanes;
  }
  if (memory_bounded_) {
    fill_memory_counters(report.memory);
    if (report.memory.evictions != last_reported_evictions_) {
      last_reported_evictions_ = report.memory.evictions;
      if (!observers_.empty()) {
        const MemoryReport mem = memory_report();
        for (SinkObserver* o : observers_) o->on_memory_report(mem);
      }
    }
  }
  heartbeat_tick();
}

void PintFramework::heartbeat_tick() {
  bool fire = false;
  if (memory_report_interval_ != 0 &&
      ++packets_since_memory_report_ >= memory_report_interval_) {
    packets_since_memory_report_ = 0;
    fire = true;
  }
  if (memory_report_interval_time_.count() > 0) {
    // Clock reads happen only with the time heartbeat configured, so the
    // default hot path stays syscall-free.
    const auto now = std::chrono::steady_clock::now();
    if (now - last_timed_memory_report_ >= memory_report_interval_time_) {
      last_timed_memory_report_ = now;
      fire = true;
    }
  }
  if (!fire || observers_.empty()) return;
  const MemoryReport mem = memory_report();
  for (SinkObserver* o : observers_) o->on_memory_report(mem);
}

SinkReport PintFramework::at_sink(const Packet& packet, unsigned k) {
  SinkReport report;
  sink_one(packet, k, report, nullptr);
  return report;
}

void PintFramework::at_sink(const Packet& packet, unsigned k,
                            SinkReport& report) {
  sink_one(packet, k, report, nullptr);
}

void PintFramework::at_sink(const Packet& packet, unsigned k,
                            SinkReport& report, const FlowKeyHint& hint) {
  sink_one(packet, k, report, &hint);
}

void PintFramework::at_sink(std::span<const Packet> packets, unsigned k,
                            std::span<SinkReport> reports) {
  if (!reports.empty() && reports.size() != packets.size()) {
    throw std::invalid_argument("reports must be empty or match packets");
  }
  SinkReport scratch;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    sink_one(packets[i], k, reports.empty() ? scratch : reports[i], nullptr);
  }
}

void PintFramework::add_observer(SinkObserver* observer) {
  observers_.push_back(observer);
}

// --- memory accounting ------------------------------------------------------

namespace {

// The per-flow stores differ only in state type; every counter read is
// shared. `visit_store` routes a binding's active store (if any) through
// one generic callable so the stat-filling logic exists once.
template <typename Binding, typename Fn>
void visit_store(const Binding& b, Fn&& fn) {
  switch (b.spec.query.aggregation) {
    case AggregationType::kStaticPerFlow:
      fn(b.decoders);
      break;
    case AggregationType::kDynamicPerFlow:
      fn(b.recorders);
      break;
    case AggregationType::kPerPacket:
      break;  // stateless at the sink
  }
}

}  // namespace

void PintFramework::fill_memory_counters(MemoryCounters& out) const {
  out = MemoryCounters{};
  out.bounded = memory_bounded_;
  out.capacity_bytes = memory_ceiling_;
  for (const Binding& b : bindings_) {
    visit_store(b, [&](const auto& store) {
      out.used_bytes += store.used_bytes();
      out.flows += store.flows();
      out.evictions += store.evictions();
      out.admissions_rejected += store.admissions_rejected();
      out.over_budget = out.over_budget || store.over_budget();
      if (memory_ceiling_ == 0) out.capacity_bytes += store.capacity_bytes();
    });
  }
}

MemoryReport PintFramework::memory_report() const {
  MemoryReport out;
  fill_memory_counters(out.total);
  for (const Binding& b : bindings_) {
    if (b.spec.query.aggregation == AggregationType::kPerPacket) continue;
    if (out.query_count == MemoryReport::kMaxQueries) break;
    QueryMemoryStats& q = out.queries[out.query_count++];
    q.query = b.spec.query.name;
    visit_store(b, [&](const auto& store) {
      q.used_bytes = store.used_bytes();
      q.capacity_bytes = store.capacity_bytes();
      q.peak_used_bytes = store.peak_used_bytes();
      q.max_entry_bytes = store.max_entry_bytes();
      q.flows = store.flows();
      q.evictions = store.evictions();
      q.created = store.created();
      q.over_budget = store.over_budget();
      q.policy = store.policy_kind();
      q.admissions_rejected = store.admissions_rejected();
      q.doorkeeper_hits = store.doorkeeper_hits();
      q.frequency_evictions = store.frequency_evictions();
    });
    q.decode_conflicts = b.decode_conflicts;
  }
  return out;
}

// --- wire format ------------------------------------------------------------

std::span<const unsigned> PintFramework::widths_for(PacketId packet) const {
  const std::size_t index = engine_->set_index_for_packet(packet);
  if (index >= set_widths_.size()) return {};  // no set: no lanes
  return set_widths_[index];
}

std::size_t PintFramework::lane_widths(PacketId packet,
                                       std::span<unsigned> out) const {
  const std::span<const unsigned> widths = widths_for(packet);
  if (out.empty()) return widths.size();
  if (out.size() < widths.size()) {
    throw std::invalid_argument("lane buffer too small");
  }
  std::copy(widths.begin(), widths.end(), out.begin());
  return widths.size();
}

std::vector<std::uint8_t> PintFramework::pack_wire(
    const Packet& packet) const {
  const std::span<const unsigned> widths = widths_for(packet.id);
  if (packet.digests.size() != widths.size()) {
    throw std::invalid_argument("packet digests do not match its query set");
  }
  std::vector<std::uint8_t> out(wire_bytes(widths));
  pack_digests_into(packet.digests, widths, out);
  return out;
}

void PintFramework::unpack_wire(std::span<const std::uint8_t> bytes,
                                Packet& packet) const {
  const std::span<const unsigned> widths = widths_for(packet.id);
  // Validate before touching the packet: a short buffer leaves its
  // digests as they were. Then decode in place, reusing their capacity.
  if (bytes.size() < wire_bytes(widths)) {
    throw std::invalid_argument("buffer too small for widths");
  }
  packet.digests.resize(widths.size());
  unpack_digests_into(bytes, widths, packet.digests);
}

// --- introspection ----------------------------------------------------------

const PintFramework::Binding* PintFramework::find_binding(
    std::string_view query) const {
  for (const Binding& b : bindings_) {
    if (b.spec.query.name == query) return &b;
  }
  return nullptr;
}

const PintFramework::Binding* PintFramework::find_binding(
    AggregationType aggregation) const {
  for (const Binding& b : bindings_) {
    if (b.spec.query.aggregation == aggregation) return &b;
  }
  return nullptr;
}

const QuerySpec* PintFramework::spec(std::string_view query) const {
  const Binding* b = find_binding(query);
  return b == nullptr ? nullptr : &b->spec;
}

std::vector<std::string_view> PintFramework::query_names() const {
  std::vector<std::string_view> out;
  out.reserve(bindings_.size());
  for (const Binding& b : bindings_) out.push_back(b.spec.query.name);
  return out;
}

bool PintFramework::flow_resident(std::string_view query,
                                  std::uint64_t fkey) const {
  const Binding* b = find_binding(query);
  if (b == nullptr) return false;
  bool resident = false;
  visit_store(*b, [&](const auto& store) {
    resident = store.find(fkey) != nullptr;
  });
  return resident;
}

std::uint64_t PintFramework::flow_key_for(std::string_view query,
                                          const FiveTuple& tuple) const {
  const Binding* b = find_binding(query);
  return flow_key(tuple, b == nullptr ? FlowDefinition::kFiveTuple
                                      : b->spec.query.flow_definition);
}

// --- inference --------------------------------------------------------------

namespace {

std::optional<std::vector<SwitchId>> binding_flow_path(
    const RecordingStore<HashedPathDecoder>& decoders, std::uint64_t fkey) {
  const HashedPathDecoder* decoder = decoders.find(fkey);
  if (decoder == nullptr || !decoder->complete()) return std::nullopt;
  std::vector<SwitchId> out;
  out.reserve(decoder->k());
  for (std::uint64_t v : decoder->path()) {
    out.push_back(static_cast<SwitchId>(v));
  }
  return out;
}

}  // namespace

std::optional<std::vector<SwitchId>> PintFramework::flow_path(
    std::string_view query, std::uint64_t fkey) const {
  const Binding* b = find_binding(query);
  if (b == nullptr) return std::nullopt;
  return binding_flow_path(b->decoders, fkey);
}

std::optional<std::vector<SwitchId>> PintFramework::flow_path(
    std::uint64_t fkey) const {
  const Binding* b = find_binding(AggregationType::kStaticPerFlow);
  if (b == nullptr) return std::nullopt;
  return binding_flow_path(b->decoders, fkey);
}

double PintFramework::path_progress(std::string_view query,
                                    std::uint64_t fkey) const {
  const Binding* b = find_binding(query);
  if (b == nullptr) return 0.0;
  const HashedPathDecoder* decoder = b->decoders.find(fkey);
  if (decoder == nullptr || decoder->k() == 0) return 0.0;
  return static_cast<double>(decoder->resolved_count()) / decoder->k();
}

double PintFramework::path_progress(std::uint64_t fkey) const {
  const Binding* b = find_binding(AggregationType::kStaticPerFlow);
  return b == nullptr ? 0.0 : path_progress(b->spec.query.name, fkey);
}

std::optional<double> PintFramework::latency_quantile(std::string_view query,
                                                      std::uint64_t fkey,
                                                      HopIndex hop,
                                                      double phi) const {
  const Binding* b = find_binding(query);
  if (b == nullptr) return std::nullopt;
  const FlowLatencyRecorder* recorder = b->recorders.find(fkey);
  if (recorder == nullptr) return std::nullopt;
  return recorder->quantile(hop, phi);
}

std::optional<double> PintFramework::latency_quantile(std::uint64_t fkey,
                                                      HopIndex hop,
                                                      double phi) const {
  const Binding* b = find_binding(AggregationType::kDynamicPerFlow);
  if (b == nullptr) return std::nullopt;
  return latency_quantile(b->spec.query.name, fkey, hop, phi);
}

std::vector<std::uint64_t> PintFramework::latency_frequent_values(
    std::string_view query, std::uint64_t fkey, HopIndex hop,
    double theta) const {
  const Binding* b = find_binding(query);
  if (b == nullptr) return {};
  const FlowLatencyRecorder* recorder = b->recorders.find(fkey);
  if (recorder == nullptr) return {};
  return recorder->frequent_values(hop, theta);
}

std::vector<std::uint64_t> PintFramework::latency_frequent_values(
    std::uint64_t fkey, HopIndex hop, double theta) const {
  const Binding* b = find_binding(AggregationType::kDynamicPerFlow);
  if (b == nullptr) return {};
  return latency_frequent_values(b->spec.query.name, fkey, hop, theta);
}

}  // namespace pint
