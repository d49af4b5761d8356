// SlabArena / ArenaAllocator (common/arena.h) and the arena-backed
// RecordingStore: pooled nodes must recycle through the free lists, a null
// arena must degrade to the heap, and a store's eviction churn must reuse
// its arena's nodes.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "pint/recording_store.h"

namespace pint {
namespace {

TEST(SlabArena, RecyclesFreedNodesThroughFreeLists) {
  SlabArena arena;
  void* a = arena.allocate(24, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.freelist_reuses(), 0u);
  arena.deallocate(a, 24, 8);
  // Same size class comes back from the free list, not fresh slab space.
  void* b = arena.allocate(24, 8);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.freelist_reuses(), 1u);
  arena.deallocate(b, 24, 8);
}

TEST(SlabArena, GrowsSlabsAndServesManySizes) {
  SlabArena arena(1 << 12);
  std::vector<std::pair<void*, std::size_t>> live;
  for (std::size_t i = 1; i <= 400; ++i) {
    const std::size_t bytes = 8 + (i % 13) * 16;
    void* p = arena.allocate(bytes, 8);
    ASSERT_NE(p, nullptr);
    // Pooled memory is 16-aligned by construction.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    live.emplace_back(p, bytes);
  }
  EXPECT_GT(arena.slabs(), 1u);  // forced past one slab
  for (auto& [p, bytes] : live) arena.deallocate(p, bytes, 8);
  // Everything freed: the next wave reuses, no new slabs.
  const std::size_t slabs_before = arena.slabs();
  for (std::size_t i = 1; i <= 400; ++i) {
    const std::size_t bytes = 8 + (i % 13) * 16;
    arena.deallocate(arena.allocate(bytes, 8), bytes, 8);
  }
  EXPECT_EQ(arena.slabs(), slabs_before);
  EXPECT_GT(arena.freelist_reuses(), 0u);
}

TEST(SlabArena, OversizeRequestsFallThroughToHeap) {
  SlabArena arena(1 << 12);  // max pooled = 1 KiB
  const std::size_t big = 64 << 10;
  void* p = arena.allocate(big, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.oversize_allocs(), 1u);
  EXPECT_EQ(arena.slabs(), 0u);  // no slab was cut for it
  arena.deallocate(p, big, 8);
}

TEST(ArenaAllocator, BacksStandardContainers) {
  SlabArena arena;
  using Alloc = ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
  std::unordered_map<std::uint64_t, std::uint64_t, std::hash<std::uint64_t>,
                     std::equal_to<std::uint64_t>, Alloc>
      map(0, std::hash<std::uint64_t>{}, std::equal_to<std::uint64_t>{},
          Alloc{&arena});
  std::list<std::uint64_t, ArenaAllocator<std::uint64_t>> list{
      ArenaAllocator<std::uint64_t>{&arena}};
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map[i] = i * i;
    list.push_back(i);
  }
  for (std::uint64_t i = 0; i < 1000; ++i) ASSERT_EQ(map[i], i * i);
  EXPECT_EQ(std::accumulate(list.begin(), list.end(), std::uint64_t{0}),
            499500u);
  // Erase half, insert again: the free lists must absorb the churn.
  for (std::uint64_t i = 0; i < 1000; i += 2) map.erase(i);
  const std::uint64_t reuses_before = arena.freelist_reuses();
  for (std::uint64_t i = 0; i < 1000; i += 2) map[i] = i;
  EXPECT_GT(arena.freelist_reuses(), reuses_before);
}

TEST(ArenaAllocator, NullArenaUsesHeap) {
  std::list<int, ArenaAllocator<int>> list;  // default: arena == nullptr
  for (int i = 0; i < 100; ++i) list.push_back(i);
  EXPECT_EQ(list.size(), 100u);
  EXPECT_EQ(list.front(), 0);
  EXPECT_EQ(list.back(), 99);
}

// --- RecordingStore over the arena ------------------------------------------

using Store = RecordingStore<std::vector<std::uint64_t>>;

Store::Factory vec_factory() {
  return [](std::uint64_t key) {
    return std::vector<std::uint64_t>{key};
  };
}

Store::SizeFn vec_size() {
  return [](const std::vector<std::uint64_t>& v) {
    return vector_entry_bytes(v);
  };
}

TEST(RecordingStoreArena, EnabledByDefaultAndUsedByChurn) {
  Store store(4096, vec_factory(), vec_size());
  for (std::uint64_t f = 0; f < 2000; ++f) store.touch(f);
  EXPECT_GT(store.evictions(), 0u);  // churned through the ceiling
  // Eviction churn at a full ceiling recycles nodes through the arena.
  EXPECT_GT(store.arena().freelist_reuses(), 0u);
  EXPECT_GT(store.arena().slabs(), 0u);
}

}  // namespace
}  // namespace pint
