// Hashed-value path decoder (paper Section 4.2, "Reducing the Bit-overhead
// using Hashing").
//
// When the digest is narrower than a value, hop i writes h(M_i, packet)
// instead of M_i. The decoder knows the finite value universe V (e.g. all
// switch IDs in the network) and keeps, per hop, the set of candidate values
// consistent with every Baseline packet observed from that hop. A hop is
// resolved when exactly one candidate survives. XOR packets are stored and
// peeled: once all-but-one of a packet's participant hops are resolved, the
// residual digest acts like one more Baseline observation for the remaining
// hop.
//
// The universe is shared and immutable (one copy per framework, not per
// flow), and a hop's candidate set is built only when the hop is first
// observed: an empty set means "not yet observed", and the first filter
// scans the universe keeping only the survivors. A decoder's state is thus
// proportional to what it has learned, not to k x |V|.
//
// Multiple instantiations (Section 4.2) run `instances` independent scheme
// copies whose observations all narrow the *shared* per-hop candidate sets,
// which is why 2 x (b=8) outperforms 1 x (b=16) in packets-to-decode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "coding/encoder.h"
#include "coding/scheme.h"
#include "common/types.h"

namespace pint {

struct HashedDecoderConfig {
  unsigned k = 0;          // path length
  unsigned bits = 8;       // digest bits per instance (1..64)
  unsigned instances = 1;  // independent scheme copies
  SchemeConfig scheme;
};

class HashedPathDecoder {
 public:
  /// All possible block values (e.g. every switch ID), shared read-only by
  /// every decoder built over the same network.
  using Universe = std::shared_ptr<const std::vector<std::uint64_t>>;

  HashedPathDecoder(HashedDecoderConfig cfg, const GlobalHash& root,
                    Universe universe);
  /// Convenience for standalone decoders: wraps `universe` in a private
  /// shared copy.
  HashedPathDecoder(HashedDecoderConfig cfg, const GlobalHash& root,
                    std::vector<std::uint64_t> universe);

  // Feed one packet; `digests` has one lane per instance.
  // Returns the number of hops newly resolved. Throws std::runtime_error
  // when some hop has no candidate left (wrong universe, path length, or a
  // corrupted packet); the decoder is then left exactly as it was before
  // the packet.
  unsigned add_packet(PacketId packet, std::span<const Digest> digests);

  bool complete() const { return resolved_ == cfg_.k; }
  unsigned resolved_count() const { return resolved_; }
  unsigned k() const { return cfg_.k; }

  std::optional<std::uint64_t> value_at(HopIndex hop) const;
  std::vector<std::uint64_t> path() const;  // requires complete()

  std::uint64_t packets_consumed() const { return packets_; }

  // Approximate heap + object footprint in bytes, for the Recording
  // Module's memory accounting: only the candidate storage that exists
  // (the shared universe is not per-flow state). Grows when a hop is first
  // observed, shrinks as its candidates are filtered, and grows with
  // buffered XOR records.
  std::size_t approx_bytes() const;

 private:
  struct XorRecord {
    PacketId packet;
    unsigned instance;
    Digest residual;
    std::vector<HopIndex> unknown;
  };

  // One reversible mutation made while applying a packet. add_packet
  // replays its log backwards when the packet turns out inconsistent.
  struct Undo {
    enum class Kind : std::uint8_t {
      kCandidates,  // candidates_[hop] replaced; `values` = previous set
      kIndexPush,   // a record index appended to hop_to_records_[hop]
      kIndexErase,  // hop_to_records_[hop] erased; `indices` = its entry
      kPeel,        // `hop` peeled off records_[record] at `pos`
    };
    Kind kind;
    HopIndex hop;
    std::vector<std::uint64_t> values = {};
    std::vector<std::size_t> indices = {};
    std::size_t record = 0;
    std::size_t pos = 0;
    Digest peeled = 0;  // the digest XORed out of the record's residual
  };
  using Journal = std::vector<Undo>;

  // Keep only candidates v of `hop` with h(v, packet) == digest under
  // instance `inst`; returns resolved hops triggered (cascade). Throws
  // with the hop's set untouched when nothing survives.
  unsigned filter_hop(HopIndex hop, unsigned inst, PacketId packet,
                      Digest digest, Journal& journal);
  unsigned on_resolved(HopIndex hop, Journal& journal);
  void roll_back(Journal& journal);

  HashedDecoderConfig cfg_;
  std::vector<InstanceHashes> hashes_;
  Universe universe_;
  // Per hop (1-based-1); empty = not yet observed (the whole universe).
  std::vector<std::vector<std::uint64_t>> candidates_;
  unsigned resolved_ = 0;
  std::uint64_t packets_ = 0;
  std::vector<XorRecord> records_;
  std::unordered_map<HopIndex, std::vector<std::size_t>> hop_to_records_;
};

}  // namespace pint
