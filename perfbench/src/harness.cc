#include "harness.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "hash/global_hash.h"
#include "pint/frame.h"

namespace perfbench {

using namespace pint;

// --- CountingObserver -------------------------------------------------------

CountingObserver::CountingObserver(
    const Traffic& traffic,
    const std::vector<std::atomic<std::int64_t>>& epoch_end_ns,
    const std::atomic<std::int64_t>& base_ns,
    std::vector<WeightedSample>* freshness)
    : traffic_(traffic),
      epoch_end_ns_(epoch_end_ns),
      base_ns_(base_ns),
      freshness_(freshness),
      received_(traffic.epochs, 0),
      pending_(traffic.epochs, 0),
      decoded_(traffic.flow_paths.size(), 0) {
  touched_.reserve(traffic.epochs);
}

void CountingObserver::on_path_decoded(const SinkContext& ctx,
                                       std::string_view,
                                       const std::vector<SwitchId>&) {
  count(ctx.packet_id);
  if (ctx.packet_id == 0 || ctx.packet_id > traffic_.packets.size()) return;
  const std::uint32_t flow = traffic_.flow_of[ctx.packet_id - 1];
  if (traffic_.flow_keys[flow] != ctx.flow) {
    ++bogus_;  // a path event attributed to the wrong flow
    return;
  }
  if (decoded_[flow] == 0) {
    decoded_[flow] = 1;
    ++flows_decoded_;
  }
}

void CountingObserver::flush(std::int64_t t_ns) {
  if (touched_.empty()) return;
  const std::int64_t base = base_ns_.load(std::memory_order_acquire);
  for (std::uint32_t epoch : touched_) {
    if (freshness_ != nullptr) {
      const std::int64_t epoch_end =
          base + epoch_end_ns_[epoch].load(std::memory_order_acquire);
      freshness_->push_back(WeightedSample{
          static_cast<double>(t_ns - epoch_end) / 1e6, pending_[epoch], epoch});
    }
    pending_[epoch] = 0;
  }
  last_epoch_ = touched_.back();
  touched_.clear();
  last_record_ns_ = t_ns;
}

// --- TimingIngest -----------------------------------------------------------

void TimingIngest::ingest_stream(std::uint32_t source,
                                 std::span<const std::uint8_t> bytes) {
  const std::int64_t apps_before = apps_busy_ns_ ? *apps_busy_ns_ : 0;
  const std::uint64_t records_before = collector_.records_ingested();
  const int span = tracer_.open("sim.fanin.ingest", Tracer::kParentEpoch);
  collector_.ingest_stream(source, bytes);
  const std::int64_t t = now_ns();
  counter_.flush(t);
  const std::uint64_t records = collector_.records_ingested() - records_before;
  if (span >= 0 && apps_busy_ns_ != nullptr) {
    tracer_.add_coalesced("apps", t - (*apps_busy_ns_ - apps_before), t,
                          *apps_busy_ns_ - apps_before, records,
                          counter_.last_epoch());
  }
  if (records > 0) tracer_.set_epoch(span, counter_.last_epoch());
  tracer_.close(span, records);
}

void TimingIngest::end_stream(std::uint32_t source) {
  collector_.end_stream(source);
  counter_.flush(now_ns());
}

void TimingIngest::disconnect_stream(std::uint32_t source) {
  collector_.disconnect_stream(source);
  counter_.flush(now_ns());
}

// --- TimingStream -----------------------------------------------------------

bool TimingStream::try_write(std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> out = bytes;
  const bool flip = corrupt_ && bytes.size() > kFrameHeaderBytes &&
                    peek_frame_type(bytes) == FrameType::kPayload;
  if (flip) {
    scratch_.assign(bytes.begin(), bytes.end());
    const std::size_t payload = bytes.size() - kFrameHeaderBytes;
    scratch_[kFrameHeaderBytes + payload / 2] ^= 0x5A;
    out = scratch_;
  }
  const int span = tracer_.open("transport.write", Tracer::kParentEpoch);
  const bool ok = inner_->try_write(out);
  tracer_.close(span);
  if (flip && ok) corrupt_ = false;
  return ok;
}

// --- CaptureObserver --------------------------------------------------------

std::uint8_t CaptureObserver::intern(std::string_view query) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == query) return static_cast<std::uint8_t>(i);
  }
  names_.emplace_back(query);
  return static_cast<std::uint8_t>(names_.size() - 1);
}

void CaptureObserver::on_observation(const SinkContext& ctx,
                                     std::string_view query,
                                     const Observation& obs) {
  Rec rec;
  rec.ctx = ctx;
  rec.obs = obs;
  rec.query = intern(query);
  records_.push_back(rec);
}

void CaptureObserver::on_path_decoded(const SinkContext& ctx,
                                      std::string_view query,
                                      const std::vector<SwitchId>& path) {
  Rec rec;
  rec.ctx = ctx;
  rec.query = intern(query);
  rec.path_event = true;
  rec.path_off = static_cast<std::uint32_t>(path_pool_.size());
  rec.path_len = static_cast<std::uint16_t>(path.size());
  path_pool_.insert(path_pool_.end(), path.begin(), path.end());
  records_.push_back(rec);
}

std::vector<std::uint32_t> CaptureObserver::sorted_order() const {
  std::vector<std::uint32_t> order(records_.size());
  std::iota(order.begin(), order.end(), 0u);
  // Each packet's records come from one sink shard, in order, so a stable
  // sort by packet id is a total order on any lossless record stream.
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return records_[a].ctx.packet_id < records_[b].ctx.packet_id;
  });
  return order;
}

void CaptureObserver::add_to(ReportEncoder& encoder, const Rec& rec,
                             std::vector<SwitchId>& path) const {
  if (rec.path_event) {
    path.assign(path_pool_.begin() + rec.path_off,
                path_pool_.begin() + rec.path_off + rec.path_len);
    encoder.add_path(rec.ctx, names_[rec.query], path);
  } else {
    encoder.add(rec.ctx, names_[rec.query], rec.obs);
  }
}

std::vector<std::uint8_t> CaptureObserver::canonical_bytes() const {
  ReportEncoder encoder;
  std::vector<SwitchId> path;
  for (std::uint32_t i : sorted_order()) add_to(encoder, records_[i], path);
  return encoder.finish();
}

void CaptureObserver::replay_into(ReportEncoder& encoder) const {
  std::vector<SwitchId> path;
  for (const Rec& rec : records_) add_to(encoder, rec, path);
}

std::vector<std::uint64_t> CaptureObserver::record_hashes() const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(records_.size());
  for (const Rec& rec : records_) {
    std::uint64_t h = hash_combine(mix64(rec.ctx.packet_id), rec.ctx.flow);
    h = hash_combine(h, rec.ctx.path_length);
    for (char c : names_[rec.query]) {
      h = hash_combine(h, static_cast<std::uint8_t>(c));
    }
    if (rec.path_event) {
      h = hash_combine(h, 0xBA7);
      for (std::uint32_t i = 0; i < rec.path_len; ++i) {
        h = hash_combine(h, path_pool_[rec.path_off + i]);
      }
    } else {
      h = hash_combine(h, rec.obs.index());
      if (const auto* agg = std::get_if<AggregateObservation>(&rec.obs)) {
        h = hash_combine(h, std::bit_cast<std::uint64_t>(agg->value));
      } else if (const auto* hop =
                     std::get_if<HopSampleObservation>(&rec.obs)) {
        h = hash_combine(h, hop->hop);
        h = hash_combine(h, std::bit_cast<std::uint64_t>(hop->value));
      } else {
        const auto& digest = std::get<PathDigestObservation>(rec.obs);
        h = hash_combine(h, digest.resolved_hops);
        h = hash_combine(h, digest.path_length);
        h = hash_combine(h, digest.complete ? 1 : 0);
      }
    }
    hashes.push_back(h);
  }
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::vector<std::uint32_t> CaptureObserver::epoch_counts(
    const Traffic& traffic) const {
  std::vector<std::uint32_t> counts(traffic.epochs, 0);
  for (const Rec& rec : records_) {
    const PacketId id = rec.ctx.packet_id;
    if (id >= 1 && id <= traffic.packets.size()) {
      ++counts[traffic.epoch_of[id - 1]];
    }
  }
  return counts;
}

std::uint64_t multiset_difference(const std::vector<std::uint64_t>& a,
                                  const std::vector<std::uint64_t>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t diff = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
      ++diff;
    } else {
      ++j;
      ++diff;
    }
  }
  return diff + (a.size() - i) + (b.size() - j);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001B3ULL;
  return h;
}

}  // namespace perfbench
