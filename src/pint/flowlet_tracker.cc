#include "pint/flowlet_tracker.h"

namespace pint {

FlowletTracker::FlowletTracker(const PathTracingQuery& query, unsigned k,
                               HashedPathDecoder::Universe universe)
    : config_(query.config()),
      scheme_(query.scheme()),
      root_(query.root()),
      hashes0_(query.instance_hashes(0)),
      k_(k),
      universe_(std::move(universe)) {
  start_flowlet();
}

FlowletTracker::FlowletTracker(const PathTracingQuery& query, unsigned k,
                               std::vector<std::uint64_t> universe)
    : FlowletTracker(query, k,
                     std::make_shared<const std::vector<std::uint64_t>>(
                         std::move(universe))) {}

void FlowletTracker::start_flowlet() {
  HashedDecoderConfig cfg;
  cfg.k = k_;
  cfg.bits = config_.bits;
  cfg.instances = config_.instances;
  cfg.scheme = scheme_;
  decoder_ = std::make_unique<HashedPathDecoder>(cfg, root_, universe_);
  detector_ = std::make_unique<PathChangeDetector>(k_, scheme_, hashes0_,
                                                   config_.bits);
  synced_hops_ = 0;
  archived_current_ = false;
}

void FlowletTracker::sync_detector() {
  if (decoder_->resolved_count() == synced_hops_) return;
  for (HopIndex i = 1; i <= k_; ++i) {
    const auto v = decoder_->value_at(i);
    if (v.has_value()) detector_->set_known(i, static_cast<SwitchId>(*v));
  }
  synced_hops_ = decoder_->resolved_count();
}

bool FlowletTracker::add_packet(PacketId packet,
                                std::span<const Digest> lanes) {
  // Change detection first: a contradiction means this packet belongs to a
  // NEW flowlet and must not pollute the current decoder. (Detection uses
  // instance 0's lane; all instances share layer/g decisions per instance,
  // so one lane suffices to prove a change.)
  if (detector_->check(packet, lanes[0]).has_value()) {
    ++route_changes_;
    if (decoder_->complete() && !archived_current_) {
      std::vector<SwitchId> path;
      for (std::uint64_t v : decoder_->path())
        path.push_back(static_cast<SwitchId>(v));
      completed_.push_back(std::move(path));
      archived_current_ = true;
    }
    start_flowlet();
    // The contradicting packet seeds the new flowlet's decoder.
    decoder_->add_packet(packet, lanes);
    sync_detector();
    return true;
  }
  if (!decoder_->complete()) {
    try {
      decoder_->add_packet(packet, lanes);
    } catch (const std::runtime_error&) {
      // "No candidate survives" — packets from two routes were mixed into
      // one decoder before any hop resolved. That too proves a change;
      // restart cleanly from this packet.
      ++route_changes_;
      start_flowlet();
      decoder_->add_packet(packet, lanes);
      sync_detector();
      return true;
    }
    sync_detector();
    if (decoder_->complete() && !archived_current_) {
      std::vector<SwitchId> path;
      for (std::uint64_t v : decoder_->path())
        path.push_back(static_cast<SwitchId>(v));
      completed_.push_back(std::move(path));
      archived_current_ = true;
    }
  }
  return false;
}

}  // namespace pint
