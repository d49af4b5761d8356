/// \file
/// Recording Module storage manager (paper Sections 3.3-3.4).
///
/// The Recording Module sits off-switch and stores per-flow state (decoders,
/// sketches). Queries carry an optional per-flow space budget, and an
/// operator-level memory ceiling bounds the total. This manager owns the
/// per-flow entries, tracks an approximate byte accounting, and evicts the
/// least-recently-updated flows when over the ceiling — the paper's
/// observation that "oftentimes one mostly cares about tracing large flows"
/// makes LRU the natural policy: active (large) flows keep refreshing.
///
/// LRU is the default, but admission and eviction are pluggable
/// (pint/policy.h): `set_policy` installs a StorePolicy consulted on every
/// arrival (admit/reject for the `try_*` accessors) and on every eviction
/// candidate (evict/second-chance). With no policy installed the store runs
/// its original LRU code path byte-identically.
///
/// Accounting contract: `used_bytes()` is always the exact sum of the last
/// reported size of every resident entry (sizes may grow *or shrink* between
/// touches — a path decoder grows when a hop is first observed and shrinks
/// as that hop's candidate set narrows). The
/// flow being touched is never evicted, so `used_bytes()` may transiently
/// exceed the capacity by at most one entry; `peak_used_bytes()` records the
/// high-water mark and `over_budget()` flags the only persistent overshoot
/// case (a sole protected entry larger than the whole ceiling).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "pint/policy.h"

namespace pint {

/// Footprint of a vector-valued store entry (the common application case:
/// a per-flow path), including the map-node overhead.
template <typename T>
std::size_t vector_entry_bytes(const std::vector<T>& v) {
  return sizeof(v) + v.capacity() * sizeof(T) + kMapNodeOverheadBytes;
}

template <typename PerFlowState>
class RecordingStore {
 public:
  using SizeFn = std::function<std::size_t(const PerFlowState&)>;
  using Factory = std::function<PerFlowState(std::uint64_t flow_key)>;

  /// `capacity_bytes` = 0 disables eviction. `size_of` reports a state's
  /// approximate footprint — re-evaluated on every touch while a capacity
  /// is set; an unbounded store sizes entries once at creation (and on
  /// put()) so the no-ceiling hot path never walks state it will not
  /// evict.
  ///
  /// The store's own nodes (hash-map entries, LRU links) come from a
  /// private SlabArena (common/arena.h): steady-state create/evict churn
  /// recycles pooled nodes instead of hitting the heap.
  RecordingStore(std::size_t capacity_bytes, Factory factory, SizeFn size_of)
      : capacity_(capacity_bytes), factory_(std::move(factory)),
        size_of_(std::move(size_of)) {
    if (!factory_ || !size_of_) {
      throw std::invalid_argument("callbacks required");
    }
  }

  /// Factory-less store: every insertion must go through the
  /// `touch(flow_key, make)` overload (the framework builds decoders with
  /// call-site context — path length, seeds — that no stored factory can
  /// know up front).
  RecordingStore(std::size_t capacity_bytes, SizeFn size_of)
      : capacity_(capacity_bytes), size_of_(std::move(size_of)) {
    if (!size_of_) throw std::invalid_argument("size_of required");
  }

  /// The slab arena behind the store's nodes.
  const SlabArena& arena() const { return *arena_; }

  /// Installs an admission/eviction policy (pint/policy.h); nullptr
  /// reverts to plain LRU — the store then runs its original code path
  /// byte-identically. Only valid while the store is empty (the builder
  /// configures stores before any packet arrives); throws std::logic_error
  /// otherwise.
  void set_policy(std::unique_ptr<StorePolicy> policy) {
    if (!entries_.empty()) {
      throw std::logic_error("RecordingStore: policy change on a live store");
    }
    policy_ = std::move(policy);
  }

  /// The installed policy, or nullptr when the store runs plain LRU.
  const StorePolicy* policy() const { return policy_.get(); }
  StorePolicyKind policy_kind() const {
    return policy_ == nullptr ? StorePolicyKind::kLru : policy_->kind();
  }

  /// Get or create the state for a flow and mark it most-recently-used.
  /// May evict other flows to stay within capacity. Creation is *forced*:
  /// an installed policy is trained on the arrival but cannot reject it
  /// (this accessor must return state) — admission-gated callers use
  /// `try_touch`.
  PerFlowState& touch(std::uint64_t flow_key) {
    if (!factory_) throw std::logic_error("store built without a factory");
    return touch(flow_key, [&] { return factory_(flow_key); });
  }

  /// Like `touch(flow_key)`, but builds a missing state with `make()` —
  /// used when construction needs per-call context.
  template <typename MakeFn>
  PerFlowState& touch(std::uint64_t flow_key, MakeFn&& make) {
    return *touch_impl(flow_key, std::forward<MakeFn>(make),
                       /*forced=*/true);
  }

  /// Admission-aware variant of `touch`: when the installed policy rejects
  /// a non-resident flow, no state is created and nullptr is returned (the
  /// rejection is counted in `admissions_rejected()`). Identical to
  /// `touch` when no policy is installed or the flow is already resident.
  [[nodiscard]] PerFlowState* try_touch(std::uint64_t flow_key) {
    if (!factory_) throw std::logic_error("store built without a factory");
    return try_touch(flow_key, [&] { return factory_(flow_key); });
  }

  /// Admission-aware `touch(flow_key, make)`; see `try_touch(flow_key)`.
  template <typename MakeFn>
  [[nodiscard]] PerFlowState* try_touch(std::uint64_t flow_key,
                                        MakeFn&& make) {
    return touch_impl(flow_key, std::forward<MakeFn>(make),
                      /*forced=*/false);
  }

  /// Insert or overwrite a flow's state in one accounted step and mark it
  /// most-recently-used. May evict other flows. Unlike touch(), the
  /// assigned state is re-sized even when unbounded (an overwrite replaces
  /// the entry wholesale, so its stale creation size would never heal).
  [[nodiscard]] PerFlowState& put(std::uint64_t flow_key,
                                  PerFlowState value) {
    auto it = entries_.find(flow_key);
    if (it == entries_.end()) {
      return touch(flow_key, [&] { return std::move(value); });
    }
    if (policy_ != nullptr) policy_->on_hit(flow_key);
    it->second.state = std::move(value);
    bump(it);
    if (capacity_ == 0) reaccount(it);
    enforce_capacity(flow_key);
    peak_used_ = std::max(peak_used_, used_);
    return it->second.state;
  }

  /// Admission-aware `put`: a non-resident flow the policy rejects is shed
  /// (the value is dropped, nullptr returned, the rejection counted); an
  /// overwrite of a resident flow is a hit and always succeeds. Identical
  /// to `put` when no policy is installed.
  [[nodiscard]] PerFlowState* try_put(std::uint64_t flow_key,
                                      PerFlowState value) {
    auto it = entries_.find(flow_key);
    if (it == entries_.end()) {
      return touch_impl(
          flow_key, [&] { return std::move(value); }, /*forced=*/false);
    }
    return &put(flow_key, std::move(value));
  }

  /// Mark an existing flow most-recently-used and re-account its size
  /// (while a capacity is set; like touch(), an unbounded store keeps
  /// creation-time sizes to stay off the hot path). Returns nullptr (and
  /// has no effect) if the flow is not resident. Unlike touch(), never
  /// creates state — for consumers that only want to refresh flows they
  /// already track (e.g. a sample landing on a stored path).
  [[nodiscard]] PerFlowState* refresh(std::uint64_t flow_key) {
    auto it = entries_.find(flow_key);
    if (it == entries_.end()) return nullptr;
    if (policy_ != nullptr) policy_->on_hit(flow_key);
    bump(it);
    enforce_capacity(flow_key);
    peak_used_ = std::max(peak_used_, used_);
    return &it->second.state;
  }

  /// Read-only lookup without LRU effect.
  [[nodiscard]] const PerFlowState* find(std::uint64_t flow_key) const {
    auto it = entries_.find(flow_key);
    return it == entries_.end() ? nullptr : &it->second.state;
  }

  bool erase(std::uint64_t flow_key) {
    auto it = entries_.find(flow_key);
    if (it == entries_.end()) return false;
    used_ -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    return true;
  }

  std::size_t flows() const { return entries_.size(); }
  std::size_t used_bytes() const { return used_; }
  std::size_t capacity_bytes() const { return capacity_; }

  /// Reset the ceiling (0 disables eviction). A lowered ceiling takes
  /// effect on the next touch — no immediate eviction sweep.
  void set_capacity_bytes(std::size_t capacity_bytes) {
    capacity_ = capacity_bytes;
  }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t created() const { return created_; }

  /// Non-resident arrivals the policy refused (try_touch/try_put returned
  /// nullptr). Exact: every admission-gated arrival lands in `created()`
  /// or here, never both. Always 0 without a policy.
  std::uint64_t admissions_rejected() const { return admissions_rejected_; }

  /// Eviction candidates the policy retained (second chances granted).
  std::uint64_t evict_retains() const { return evict_retains_; }

  /// Policy-internal counters (all-zeros without a policy): admissions
  /// granted because the doorkeeper knew the key, and evictions decided by
  /// a frequency comparison.
  std::uint64_t doorkeeper_hits() const {
    return policy_ == nullptr ? 0 : policy_->stats().doorkeeper_hits;
  }
  std::uint64_t frequency_evictions() const {
    return policy_ == nullptr ? 0 : policy_->stats().frequency_evictions;
  }

  /// High-water mark of used_bytes() as observable between operations
  /// (recorded after each touch's eviction pass, so the mid-touch
  /// transient of "new entry accounted, victims not yet evicted" is not
  /// counted); at most capacity_bytes() plus one entry — the protected
  /// flow of the touch that crossed the ceiling.
  std::size_t peak_used_bytes() const { return peak_used_; }

  /// Largest single-entry footprint ever accounted.
  std::size_t max_entry_bytes() const { return max_entry_bytes_; }

  /// True while the store cannot get back under its ceiling because the
  /// only remaining (touch-protected) entry alone exceeds it. The entry is
  /// deliberately kept — evicting the flow being updated would livelock the
  /// caller — and the flag lets operators see the budget is unsatisfiable.
  bool over_budget() const { return capacity_ != 0 && used_ > capacity_; }

 private:
  // Threading contract: no locks — a store belongs to exactly one
  // execution context. Framework-owned stores (Binding::decoders/
  // recorders) are only touched under at_sink()/at_sink_batch(), which the
  // framework already requires to be externally serialized; behind a
  // ShardedSink each shard worker owns its framework instance outright.
  // Reads (find) mutate nothing but also take no lock, so they must come
  // from that same context — this is not a reader-writer structure. The
  // LRU list + accounting make nearly every operation a write anyway, so
  // a mutex here would serialize everything; sharding (one store per
  // shard) is the supported way to scale, mirroring ShardedSink.
  using ListAlloc = ArenaAllocator<std::uint64_t>;
  using LruList = std::list<std::uint64_t, ListAlloc>;

  struct Entry {
    PerFlowState state;
    typename LruList::iterator lru_pos;
    std::size_t bytes;
  };

  using MapHash = std::hash<std::uint64_t>;
  using MapEq = std::equal_to<std::uint64_t>;
  using MapAlloc = ArenaAllocator<std::pair<const std::uint64_t, Entry>>;
  using EntryMap =
      std::unordered_map<std::uint64_t, Entry, MapHash, MapEq, MapAlloc>;

  // Shared engine behind touch/try_touch/try_put. `forced` callers must
  // receive state, so the policy is trained on the arrival but its verdict
  // is ignored; admission-gated callers get nullptr on rejection.
  template <typename MakeFn>
  PerFlowState* touch_impl(std::uint64_t flow_key, MakeFn&& make,
                           bool forced) {
    auto it = entries_.find(flow_key);
    if (it == entries_.end()) {
      if (policy_ != nullptr) {
        const AdmitVerdict verdict = policy_->on_admit(flow_key);
        if (!forced && verdict == AdmitVerdict::kReject) {
          ++admissions_rejected_;
          return nullptr;
        }
      }
      // Exception safety: user callbacks (factory, size fn) run before any
      // container mutation, and the map emplace lands before the LRU push
      // (rolled back if the push throws), so a failure at any point leaves
      // the store consistent — no orphaned LRU keys, no inflated used_.
      Entry e{make(), lru_.end(), 0};
      e.bytes = size_of_(e.state);
      it = entries_.emplace(flow_key, std::move(e)).first;
      try {
        lru_.push_front(flow_key);
      } catch (...) {
        entries_.erase(it);
        throw;
      }
      it->second.lru_pos = lru_.begin();
      used_ += it->second.bytes;
      ++created_;
      max_entry_bytes_ = std::max(max_entry_bytes_, it->second.bytes);
    } else {
      if (policy_ != nullptr) policy_->on_hit(flow_key);
      bump(it);
    }
    enforce_capacity(flow_key);
    peak_used_ = std::max(peak_used_, used_);
    return &it->second.state;
  }

  void bump(typename EntryMap::iterator it) {
    // Relink the existing node instead of erase+push: no allocator round
    // trip on the touch path, and lru_pos stays valid (splice moves the
    // node, invalidating nothing).
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    // Unbounded stores never evict, so walking the state for a fresh size
    // on every touch would only tax the decode hot path; entries keep
    // their creation-time size until a capacity is set.
    if (capacity_ != 0) reaccount(it);
  }

  void reaccount(typename EntryMap::iterator it) {
    // States grow as digests accumulate, but may also shrink (decoders
    // drop candidate sets as hops resolve), so both directions are
    // handled explicitly instead of leaning on unsigned wraparound.
    const std::size_t now = size_of_(it->second.state);
    const std::size_t before = it->second.bytes;
    if (now >= before) {
      used_ += now - before;
    } else {
      const std::size_t shrink = before - now;
      used_ = used_ >= shrink ? used_ - shrink : 0;
    }
    it->second.bytes = now;
    max_entry_bytes_ = std::max(max_entry_bytes_, now);
  }

  void enforce_capacity(std::uint64_t protect) {
    if (capacity_ == 0) return;
    if (policy_ == nullptr) {
      // Plain LRU: the store's original eviction loop, untouched, so the
      // default configuration stays byte-identical to the pre-policy code.
      while (used_ > capacity_ && !lru_.empty()) {
        const std::uint64_t victim = lru_.back();
        if (victim == protect) break;  // never evict the flow being touched
        auto it = entries_.find(victim);
        used_ -= it->second.bytes;
        lru_.pop_back();
        entries_.erase(it);
        ++evictions_;
      }
      return;
    }
    // Policy path: the LRU tail is only a *candidate* — the policy may
    // grant a second chance (candidate spliced back to the front), capped
    // at kMaxEvictRetains per pass so the ceiling still wins against a
    // policy that would retain everything. Termination: every iteration
    // evicts (entries shrink), retains (bounded), or rotates the protected
    // flow off the tail (bounded by the retains that pushed it there).
    std::size_t retains = 0;
    while (used_ > capacity_ && !lru_.empty()) {
      const std::uint64_t victim = lru_.back();
      if (victim == protect) {
        // Never evict the flow being touched. Alone it means the ceiling
        // is unsatisfiable (over_budget); otherwise it only reached the
        // tail because every other candidate was retained this pass —
        // rotate it to the front and keep enforcing.
        if (lru_.size() == 1) break;
        lru_.splice(lru_.begin(), lru_,
                    entries_.find(protect)->second.lru_pos);
        continue;
      }
      auto it = entries_.find(victim);
      if (retains < kMaxEvictRetains &&
          policy_->on_evict_candidate(victim, protect) ==
              EvictVerdict::kRetain) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        ++retains;
        ++evict_retains_;
        continue;
      }
      used_ -= it->second.bytes;
      lru_.pop_back();
      entries_.erase(it);
      ++evictions_;
    }
  }

  // Second chances granted per eviction pass before the policy is
  // overruled; bounds the work of one enforce_capacity call and guarantees
  // forward progress even against a policy that always retains.
  static constexpr std::size_t kMaxEvictRetains = 8;

  std::size_t capacity_;
  Factory factory_;
  SizeFn size_of_;
  std::unique_ptr<StorePolicy> policy_;  // nullptr = plain LRU
  // Declared before the containers so it is destroyed after them: nodes
  // must not outlive the slabs they live in.
  std::unique_ptr<SlabArena> arena_ = std::make_unique<SlabArena>();
  EntryMap entries_{0, MapHash{}, MapEq{}, MapAlloc{arena_.get()}};
  LruList lru_{ListAlloc{arena_.get()}};  // front = most recent
  std::size_t used_ = 0;
  std::size_t peak_used_ = 0;
  std::size_t max_entry_bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t admissions_rejected_ = 0;
  std::uint64_t evict_retains_ = 0;
};

}  // namespace pint
