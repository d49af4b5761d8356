/// \file
/// Cache-line layout constants and audit helpers for the concurrent hot
/// path.
///
/// The sink pipeline's shared state falls into three classes, and the
/// difference between them is the whole many-core story:
///
///  * **Single-writer counters** (a shard worker's processed total): one
///    thread writes, others read rarely. Cheap — *unless* two different writers' counters share
///    a cache line, in which case every increment invalidates the other
///    writer's line (false sharing) and both cores stall on coherence
///    traffic that no algorithmic profile will ever show.
///  * **Handshake flags** (queue head/tail indices, a worker's
///    sleep/notify state): written by one side, spun on by the other.
///    These must own their line outright, or the spinning side's reads
///    keep stealing the line from the writer.
///  * **Genuinely contended words** (MPMC cursors, pending-batch counts):
///    several writers by design. Padding cannot remove that contention,
///    but it keeps the contention from bleeding into neighbors.
///
/// This header gives the layout rules one spelling so the audit is
/// greppable: align every class boundary with `alignas(kCacheLineBytes)`
/// and assert the intent with `PINT_ASSERT_CACHELINE_ALIGNED` — a type
/// whose alignment silently decays (a refactor drops the alignas, a
/// wrapper repacks the struct) becomes a compile error, not a perf
/// mystery on a 64-core host.
#pragma once

#include <cstddef>
#include <new>

namespace pint {

/// The coherence granule the layout audit pads to. 64 bytes covers every
/// mainstream x86-64 and AArch64 part; `std::hardware_destructive_
/// interference_size` is deliberately not used — it is a compile-time
/// constant too (so no more correct on the deployment machine than 64)
/// and GCC warns that its value makes padding ABI-fragile across TUs.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Asserts a type claims at least a full cache line of alignment — the
/// compile-time witness that an `alignas(kCacheLineBytes)` on the type
/// (or its first member) survived refactoring. sizeof is then a multiple
/// of the line by the language rules, so arrays of the type never pack
/// two instances into one line.
#define PINT_ASSERT_CACHELINE_ALIGNED(...)                                   \
  static_assert(alignof(__VA_ARGS__) >= ::pint::kCacheLineBytes,             \
                #__VA_ARGS__                                                 \
                " must start on its own cache line (alignas("               \
                "kCacheLineBytes) missing or dropped)")

/// One value padded to a private cache line. For members that need a line
/// of their own inside an otherwise tightly-packed struct — typically a
/// handshake flag another thread spins on, or a single-writer counter
/// whose neighbor has a different writer.
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned {
  T value{};
};

}  // namespace pint
