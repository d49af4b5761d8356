/// \file
/// Flowlet-aware path tracing (paper Section 7, "Tracing flows with multipath
/// routing").
///
/// Under flowlet load balancing a flow's route changes over time. The tracker
/// runs a HashedPathDecoder for the current flowlet and a PathChangeDetector
/// armed with every hop resolved so far. A packet that contradicts known hops
/// signals a route change: the current decoder is archived and a fresh one
/// starts for the new flowlet. Each flowlet's path is recovered provided
/// enough of its packets reach the sink — exactly the paper's claim.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coding/hashed_decoder.h"
#include "pint/path_change.h"
#include "pint/static_aggregation.h"

namespace pint {

class FlowletTracker {
 public:
  /// Every flowlet's decoder shares `universe`; nothing is copied per
  /// flowlet.
  FlowletTracker(const PathTracingQuery& query, unsigned k,
                 HashedPathDecoder::Universe universe);
  FlowletTracker(const PathTracingQuery& query, unsigned k,
                 std::vector<std::uint64_t> universe);

  /// Feed one packet's digest lanes. Returns true if a route change was
  /// detected (a new flowlet decoder was started).
  bool add_packet(PacketId packet, std::span<const Digest> lanes);

  /// Paths of fully decoded flowlets, oldest first.
  const std::vector<std::vector<SwitchId>>& completed_paths() const {
    return completed_;
  }

  /// Current flowlet's decoding progress.
  unsigned current_resolved() const { return decoder_->resolved_count(); }
  bool current_complete() const { return decoder_->complete(); }
  std::uint64_t route_changes() const { return route_changes_; }

 private:
  void start_flowlet();
  void sync_detector();

  PathTracingConfig config_;
  SchemeConfig scheme_;
  GlobalHash root_;
  InstanceHashes hashes0_;  // instance 0 drives change detection
  unsigned k_;
  HashedPathDecoder::Universe universe_;

  std::unique_ptr<HashedPathDecoder> decoder_;
  std::unique_ptr<PathChangeDetector> detector_;
  unsigned synced_hops_ = 0;
  bool archived_current_ = false;
  std::vector<std::vector<SwitchId>> completed_;
  std::uint64_t route_changes_ = 0;
};

}  // namespace pint
