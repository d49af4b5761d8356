/// \file
/// Slab arena + STL allocator adapter for the Recording Module's per-flow
/// node storage.
///
/// A RecordingStore's hot path churns small, similarly-sized nodes: hash-map
/// entries and LRU list links, created on first touch and destroyed on
/// eviction. Backing them with the global heap costs a malloc/free round
/// trip per node and scatters flow state across the address space; a slab
/// arena instead carves nodes out of large contiguous slabs and recycles
/// freed nodes through per-size free lists, so steady-state churn (create /
/// evict at a full ceiling) touches no allocator locks and reuses warm
/// memory.
///
/// Contract:
///  * `SlabArena` is NOT thread-safe — each consumer (one RecordingStore,
///    which lives inside one framework replica driven by one shard worker)
///    owns its own arena.
///  * Memory freed into the arena is recycled but only returned to the OS
///    when the arena is destroyed — the right trade for stores whose
///    resident size is bounded by an operator ceiling.
///  * Allocations larger than `max_pooled_bytes()` (hash-table bucket
///    arrays after growth, for instance) fall through to `operator new`;
///    the arena still routes their frees correctly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace pint {

class SlabArena {
 public:
  static constexpr std::size_t kDefaultSlabBytes = 1 << 16;

  explicit SlabArena(std::size_t slab_bytes = kDefaultSlabBytes)
      : slab_bytes_(slab_bytes < kGranularity ? kGranularity : slab_bytes) {}

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  void* allocate(std::size_t bytes, std::size_t align) {
    if (!pooled(bytes, align)) {
      ++oversize_allocs_;
      return ::operator new(bytes, std::align_val_t(align));
    }
    const std::size_t size = round_up(bytes);
    const std::size_t cls = size / kGranularity;
    if (cls < free_lists_.size() && free_lists_[cls] != nullptr) {
      FreeNode* node = free_lists_[cls];
      free_lists_[cls] = node->next;
      ++reused_;
      return node;
    }
    if (remaining_ < size) new_slab(size);
    void* p = cursor_;
    cursor_ += size;
    remaining_ -= size;
    ++fresh_;
    return p;
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
    if (p == nullptr) return;
    if (!pooled(bytes, align)) {
      ::operator delete(p, std::align_val_t(align));
      return;
    }
    const std::size_t cls = round_up(bytes) / kGranularity;
    if (free_lists_.size() <= cls) free_lists_.resize(cls + 1, nullptr);
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_lists_[cls];
    free_lists_[cls] = node;
  }

  /// Largest request served from slabs; bigger ones go to the heap.
  std::size_t max_pooled_bytes() const { return slab_bytes_ / 4; }

  std::size_t slabs() const { return slabs_.size(); }
  std::size_t slab_bytes_total() const { return slabs_.size() * slab_bytes_; }
  /// Pooled allocations served by recycling a freed node.
  std::uint64_t freelist_reuses() const { return reused_; }
  /// Pooled allocations served by fresh slab space.
  std::uint64_t fresh_allocs() const { return fresh_; }
  /// Requests too large (or over-aligned) for the slabs.
  std::uint64_t oversize_allocs() const { return oversize_allocs_; }

 private:
  // One free node must fit in the smallest class, and classes are multiples
  // of the granularity, which also serves as the supported alignment bound.
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr std::size_t kGranularity = 16;
  static_assert(sizeof(FreeNode) <= kGranularity);

  static std::size_t round_up(std::size_t bytes) {
    return (bytes + kGranularity - 1) & ~(kGranularity - 1);
  }

  bool pooled(std::size_t bytes, std::size_t align) const {
    return align <= kGranularity && bytes <= max_pooled_bytes();
  }

  void new_slab(std::size_t need) {
    slabs_.push_back(std::make_unique<std::byte[]>(slab_bytes_));
    cursor_ = slabs_.back().get();
    remaining_ = slab_bytes_;
    (void)need;  // need <= max_pooled_bytes() <= slab_bytes_ by construction
  }

  std::size_t slab_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  std::vector<FreeNode*> free_lists_;  // index = size / kGranularity
  std::uint64_t reused_ = 0;
  std::uint64_t fresh_ = 0;
  std::uint64_t oversize_allocs_ = 0;
};

/// Minimal STL allocator over a SlabArena. A null arena (a
/// default-constructed allocator) degrades to plain `operator new` /
/// `operator delete`.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(SlabArena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T), alignof(T));
    } else {
      ::operator delete(p);
    }
  }

  SlabArena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  SlabArena* arena_ = nullptr;
};

}  // namespace pint
