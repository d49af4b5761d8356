// Shared helpers for the libFuzzer targets in this directory.
//
// Every target checks invariants with FUZZ_CHECK: a violation prints the
// condition and aborts, which both libFuzzer and the standalone driver
// (standalone_main.cc) report as a crashing input. assert() is not used
// because fuzz builds are frequently NDEBUG.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "hash/global_hash.h"

#define FUZZ_CHECK(cond)                                                  \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FUZZ_CHECK failed: %s at %s:%d\n", #cond,     \
                   __FILE__, __LINE__);                                   \
      std::abort();                                                       \
    }                                                                     \
  } while (0)

namespace pint_fuzz {

/// Deterministic per-input parameter stream: reads steering bytes off the
/// front of the fuzz input (so the fuzzer can mutate the parameters too)
/// and falls back to fixed defaults when the input is exhausted.
class ParamReader {
 public:
  ParamReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Next steering byte (0 once exhausted); advances the cursor.
  std::uint8_t byte() { return pos_ < size_ ? data_[pos_++] : 0; }

  /// Bytes not consumed as parameters: the payload under test.
  const std::uint8_t* rest_data() const { return data_ + pos_; }
  std::size_t rest_size() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// fuzz_path_decoder's switch universe for a (seed, size) pair, shared with
/// make_fuzz_corpus so seeds can encode real paths over it.
inline std::vector<std::uint64_t> path_universe(std::uint64_t seed,
                                                std::size_t size) {
  std::vector<std::uint64_t> universe(size);
  for (std::size_t i = 0; i < size; ++i) {
    universe[i] = pint::mix64(seed * 4096 + i);
  }
  return universe;
}

}  // namespace pint_fuzz
