/// \file
/// Static per-flow aggregation: path tracing (paper Example #2, Section 4.2).
///
/// Every (flow, switch) value is fixed — here, the switch ID — so the
/// distributed coding schemes spread the path over many packets. The encoder
/// runs on switches; the decoder lives in the Inference Module and needs the
/// flow's hop count (from TTL) and the network's switch-ID universe.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coding/encoder.h"
#include "coding/hashed_decoder.h"
#include "coding/scheme.h"
#include "common/types.h"
#include "hash/global_hash.h"

namespace pint {

enum class SchemeVariant : std::uint8_t {
  kBaseline,
  kXor,
  kHybrid,
  kMultiLayer,
  kMultiLayerRevised,
};

SchemeConfig make_scheme(SchemeVariant variant, unsigned d);

struct PathTracingConfig {
  unsigned bits = 8;        // digest bits per instance
  unsigned instances = 1;   // independent repetitions (Section 4.2)
  unsigned d = 10;          // assumed typical path length
  SchemeVariant variant = SchemeVariant::kMultiLayer;
};

/// Switch- and sink-side logic for one path-tracing query. Copyable; every
/// switch constructs it from the same (config, seed) pair.
class PathTracingQuery {
 public:
  PathTracingQuery(PathTracingConfig config, std::uint64_t seed);

  unsigned total_bits() const { return config_.bits * config_.instances; }
  const PathTracingConfig& config() const { return config_; }

  /// Switch side: hop `i` (1-based) updates all digest lanes with its ID.
  /// `lanes` must have config().instances entries. Encodes in place — no
  /// allocation, so the framework's batched hot path can run it per packet.
  void encode(PacketId packet, HopIndex i, SwitchId sid,
              std::span<Digest> lanes) const;
  void encode(PacketId packet, HopIndex i, SwitchId sid,
              std::vector<Digest>& lanes) const {
    encode(packet, i, sid, std::span<Digest>(lanes));
  }

  /// Sink side: a per-flow decoder for a k-hop flow over the given switch-ID
  /// universe. The shared-universe overload copies nothing — the framework
  /// hands every flow's decoder the same universe.
  HashedPathDecoder make_decoder(unsigned k,
                                 HashedPathDecoder::Universe universe) const;
  HashedPathDecoder make_decoder(unsigned k,
                                 std::vector<std::uint64_t> universe) const;

  /// Shared-protocol accessors (used by FlowletTracker / PathChangeDetector,
  /// which must evaluate the same hashes the switches do).
  const SchemeConfig& scheme() const { return scheme_; }
  const GlobalHash& root() const { return root_; }
  const InstanceHashes& instance_hashes(unsigned inst) const {
    return hashes_.at(inst);
  }

 private:
  PathTracingConfig config_;
  SchemeConfig scheme_;
  GlobalHash root_;
  std::vector<InstanceHashes> hashes_;
};

}  // namespace pint
