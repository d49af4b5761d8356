#include "coding/hashed_decoder.h"

#include <algorithm>
#include <stdexcept>

namespace pint {

HashedPathDecoder::HashedPathDecoder(HashedDecoderConfig cfg,
                                     const GlobalHash& root,
                                     Universe universe)
    : cfg_(cfg), universe_(std::move(universe)) {
  if (cfg.k == 0) throw std::invalid_argument("k > 0");
  if (cfg.bits == 0 || cfg.bits > 64)
    throw std::invalid_argument("bits in [1,64]");
  if (cfg.instances == 0) throw std::invalid_argument("instances > 0");
  if (universe_ == nullptr || universe_->empty())
    throw std::invalid_argument("universe nonempty");
  hashes_.reserve(cfg.instances);
  for (unsigned inst = 0; inst < cfg.instances; ++inst) {
    hashes_.push_back(make_instance_hashes(root, inst));
  }
  if (universe_->size() == 1) {  // degenerate: nothing to learn
    candidates_.assign(cfg.k, *universe_);
    resolved_ = cfg.k;
  } else {
    candidates_.resize(cfg.k);
  }
}

HashedPathDecoder::HashedPathDecoder(HashedDecoderConfig cfg,
                                     const GlobalHash& root,
                                     std::vector<std::uint64_t> universe)
    : HashedPathDecoder(cfg, root,
                        std::make_shared<const std::vector<std::uint64_t>>(
                            std::move(universe))) {}

unsigned HashedPathDecoder::add_packet(PacketId packet,
                                       std::span<const Digest> digests) {
  if (digests.size() != cfg_.instances)
    throw std::invalid_argument("one digest lane per instance expected");
  const unsigned resolved_before = resolved_;
  const std::size_t records_before = records_.size();
  // Reused across calls (and decoders) on this thread, so logging a packet
  // allocates nothing in the steady state.
  thread_local Journal journal;
  journal.clear();
  unsigned newly = 0;
  try {
    for (unsigned inst = 0; inst < cfg_.instances; ++inst) {
      const InstanceHashes& h = hashes_[inst];
      const unsigned layer = select_layer(cfg_.scheme, h.layer, packet);
      if (layer == 0) {
        const HopIndex carrier = baseline_carrier(h.g, packet, cfg_.k);
        newly += filter_hop(carrier, inst, packet, digests[inst], journal);
        continue;
      }
      XorRecord rec;
      rec.packet = packet;
      rec.instance = inst;
      rec.residual = digests[inst];
      for (HopIndex i :
           xor_layer_hops(cfg_.scheme, h, packet, cfg_.k, layer)) {
        if (candidates_[i - 1].size() == 1) {
          rec.residual ^= h.value.digest2(candidates_[i - 1][0], packet,
                                          cfg_.bits);
        } else {
          rec.unknown.push_back(i);
        }
      }
      if (rec.unknown.empty()) continue;
      if (rec.unknown.size() == 1) {
        newly += filter_hop(rec.unknown[0], inst, packet, rec.residual,
                            journal);
        continue;
      }
      const std::size_t idx = records_.size();
      records_.push_back(std::move(rec));
      for (HopIndex i : records_[idx].unknown) {
        hop_to_records_[i].push_back(idx);
        journal.push_back(Undo{Undo::Kind::kIndexPush, i});
      }
    }
  } catch (const std::runtime_error&) {
    roll_back(journal);
    journal.clear();
    records_.erase(
        records_.begin() + static_cast<std::ptrdiff_t>(records_before),
        records_.end());
    resolved_ = resolved_before;
    throw;
  }
  journal.clear();  // frees the candidate sets this packet replaced
  ++packets_;
  if (newly > 0 && complete()) {
    // Every hop is known: buffered XOR records can never be peeled again.
    records_ = {};
    hop_to_records_ = {};
  }
  return newly;
}

unsigned HashedPathDecoder::filter_hop(HopIndex hop, unsigned inst,
                                       PacketId packet, Digest digest,
                                       Journal& journal) {
  std::vector<std::uint64_t>& cands = candidates_[hop - 1];
  if (cands.size() == 1) return 0;  // already resolved
  // A hop's first observation scans the shared universe (universe order);
  // later ones narrow its own set.
  const std::vector<std::uint64_t>& source = cands.empty() ? *universe_
                                                           : cands;
  // Survivors gather in a per-thread scratch buffer: the scan is pure,
  // branch-free hashing, and the hop's new set is allocated at exact size.
  thread_local std::vector<std::uint64_t> scratch;
  if (scratch.size() < source.size()) scratch.resize(source.size());
  std::uint64_t* const out = scratch.data();
  const GlobalHash value_hash = hashes_[inst].value;
  const unsigned bits = cfg_.bits;
  std::size_t kept = 0;
  for (std::uint64_t v : source) {
    out[kept] = v;
    kept += value_hash.digest2(v, packet, bits) == digest ? 1 : 0;
  }
  if (kept == 0) {
    throw std::runtime_error(
        "inconsistent digests: no candidate survives (wrong universe, path "
        "length, or corrupted packets)");
  }
  if (kept == cands.size()) return 0;  // nothing narrowed
  std::vector<std::uint64_t> narrowed(out, out + kept);
  journal.push_back(Undo{Undo::Kind::kCandidates, hop, std::move(cands)});
  cands = std::move(narrowed);
  if (kept == 1) return on_resolved(hop, journal);
  return 0;
}

unsigned HashedPathDecoder::on_resolved(HopIndex hop, Journal& journal) {
  unsigned newly = 1;
  ++resolved_;
  const std::uint64_t value = candidates_[hop - 1][0];
  auto it = hop_to_records_.find(hop);
  if (it == hop_to_records_.end()) return newly;
  const std::vector<std::size_t> affected = it->second;
  journal.push_back(
      Undo{Undo::Kind::kIndexErase, hop, {}, std::move(it->second)});
  hop_to_records_.erase(it);
  for (std::size_t idx : affected) {
    XorRecord& rec = records_[idx];
    auto pos = std::find(rec.unknown.begin(), rec.unknown.end(), hop);
    if (pos == rec.unknown.end()) continue;
    const Digest peeled =
        hashes_[rec.instance].value.digest2(value, rec.packet, cfg_.bits);
    journal.push_back(Undo{Undo::Kind::kPeel, hop, {}, {}, idx,
                           static_cast<std::size_t>(pos - rec.unknown.begin()),
                           peeled});
    rec.unknown.erase(pos);
    rec.residual ^= peeled;
    if (rec.unknown.size() == 1) {
      newly += filter_hop(rec.unknown[0], rec.instance, rec.packet,
                          rec.residual, journal);
    }
  }
  return newly;
}

void HashedPathDecoder::roll_back(Journal& journal) {
  for (auto u = journal.rbegin(); u != journal.rend(); ++u) {
    switch (u->kind) {
      case Undo::Kind::kCandidates:
        candidates_[u->hop - 1] = std::move(u->values);
        break;
      case Undo::Kind::kIndexPush: {
        auto it = hop_to_records_.find(u->hop);
        it->second.pop_back();
        if (it->second.empty()) hop_to_records_.erase(it);
        break;
      }
      case Undo::Kind::kIndexErase:
        hop_to_records_[u->hop] = std::move(u->indices);
        break;
      case Undo::Kind::kPeel: {
        XorRecord& rec = records_[u->record];
        rec.residual ^= u->peeled;
        rec.unknown.insert(
            rec.unknown.begin() + static_cast<std::ptrdiff_t>(u->pos),
            u->hop);
        break;
      }
    }
  }
}

std::optional<std::uint64_t> HashedPathDecoder::value_at(HopIndex hop) const {
  const auto& cands = candidates_[hop - 1];
  if (cands.size() == 1) return cands[0];
  return std::nullopt;
}

std::size_t HashedPathDecoder::approx_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += hashes_.capacity() * sizeof(InstanceHashes);
  for (const auto& cands : candidates_) {
    bytes += sizeof(cands) + cands.capacity() * sizeof(std::uint64_t);
  }
  bytes += records_.capacity() * sizeof(XorRecord);
  for (const XorRecord& rec : records_) {
    bytes += rec.unknown.capacity() * sizeof(HopIndex);
  }
  for (const auto& [hop, idxs] : hop_to_records_) {
    bytes += kMapNodeOverheadBytes + idxs.capacity() * sizeof(std::size_t);
  }
  return bytes;
}

std::vector<std::uint64_t> HashedPathDecoder::path() const {
  if (!complete()) throw std::runtime_error("path not fully decoded");
  std::vector<std::uint64_t> out;
  out.reserve(cfg_.k);
  for (const auto& cands : candidates_) out.push_back(cands[0]);
  return out;
}

}  // namespace pint
