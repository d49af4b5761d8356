// Collector-side observers and the timing seams the benchmark puts at the
// layer boundaries: a ByteStream wrapper on the sender side and a
// StreamIngest wrapper in front of the FanInCollector.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pint/report_codec.h"
#include "sim/fanin.h"
#include "trace.h"
#include "traffic.h"
#include "transport/stream.h"

namespace perfbench {

// Counts each record into its epoch and notes which flows' paths reached
// the collector. Per record it only indexes tables built in
// set-up; the clock is read once per ingest call, in flush().
class CountingObserver final : public pint::SinkObserver {
 public:
  // `epoch_end_ns` holds each epoch's end as an offset from `base_ns`.
  CountingObserver(const Traffic& traffic,
                   const std::vector<std::atomic<std::int64_t>>& epoch_end_ns,
                   const std::atomic<std::int64_t>& base_ns,
                   std::vector<WeightedSample>* freshness);

  void on_observation(const pint::SinkContext& ctx, std::string_view,
                      const pint::Observation&) override {
    count(ctx.packet_id);
  }
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view,
                       const std::vector<pint::SwitchId>&) override;

  // Stamps every record counted since the last flush with `t_ns`: one
  // freshness sample per touched epoch, weighted by its records.
  void flush(std::int64_t t_ns);

  const std::vector<std::uint32_t>& received() const { return received_; }
  std::size_t flows_decoded() const { return flows_decoded_; }
  std::uint64_t bogus() const { return bogus_; }
  std::int64_t last_record_ns() const { return last_record_ns_; }
  // Epoch of the newest records stamped by flush().
  std::uint32_t last_epoch() const { return last_epoch_; }

 private:
  void count(pint::PacketId id) {
    if (id == 0 || id > traffic_.packets.size()) {
      ++bogus_;
      return;
    }
    const std::uint32_t epoch = traffic_.epoch_of[id - 1];
    if (pending_[epoch]++ == 0) touched_.push_back(epoch);
    ++received_[epoch];
  }

  const Traffic& traffic_;
  const std::vector<std::atomic<std::int64_t>>& epoch_end_ns_;
  const std::atomic<std::int64_t>& base_ns_;
  std::vector<WeightedSample>* freshness_;
  std::vector<std::uint32_t> received_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> decoded_;
  std::size_t flows_decoded_ = 0;
  std::uint64_t bogus_ = 0;
  std::int64_t last_record_ns_ = 0;
  std::uint32_t last_epoch_ = 0;
};

// Forwards to one app observer and sums the time its callbacks take
// (traced runs only).
class TimedObserver final : public pint::SinkObserver {
 public:
  TimedObserver(pint::SinkObserver& inner, std::int64_t& busy_ns)
      : inner_(inner), busy_ns_(busy_ns) {}
  void on_observation(const pint::SinkContext& ctx, std::string_view query,
                      const pint::Observation& obs) override {
    const std::int64_t t0 = now_ns();
    inner_.on_observation(ctx, query, obs);
    busy_ns_ += now_ns() - t0;
  }
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view query,
                       const std::vector<pint::SwitchId>& path) override {
    const std::int64_t t0 = now_ns();
    inner_.on_path_decoded(ctx, query, path);
    busy_ns_ += now_ns() - t0;
  }

 private:
  pint::SinkObserver& inner_;
  std::int64_t& busy_ns_;
};

// The collector boundary: every byte chunk a transport hands the
// FanInCollector passes here, so ingest is timed from outside and the
// freshness stamp is taken once per chunk.
class TimingIngest final : public pint::StreamIngest {
 public:
  TimingIngest(pint::FanInCollector& collector, CountingObserver& counter,
               Tracer& tracer, const std::int64_t* apps_busy_ns)
      : collector_(collector),
        counter_(counter),
        tracer_(tracer),
        apps_busy_ns_(apps_busy_ns) {}

  void ingest_stream(std::uint32_t source,
                     std::span<const std::uint8_t> bytes) override;
  void end_stream(std::uint32_t source) override;
  void disconnect_stream(std::uint32_t source) override;

 private:
  pint::FanInCollector& collector_;
  CountingObserver& counter_;
  Tracer& tracer_;
  const std::int64_t* apps_busy_ns_;  // null when no apps are timed
};

// The sender boundary: times each frame write and, for the self-test,
// flips one byte in the first payload frame it carries.
class TimingStream final : public pint::ByteStream {
 public:
  TimingStream(std::unique_ptr<pint::ByteStream> inner, Tracer& tracer,
               bool corrupt_one_payload)
      : inner_(std::move(inner)),
        tracer_(tracer),
        corrupt_(corrupt_one_payload) {}

  [[nodiscard]] bool try_write(std::span<const std::uint8_t> bytes) override;
  [[nodiscard]] std::size_t read(std::span<std::uint8_t> out) override {
    return inner_->read(out);
  }
  void close_write() override { inner_->close_write(); }
  [[nodiscard]] bool eof() const override { return inner_->eof(); }
  std::size_t capacity() const override { return inner_->capacity(); }

 private:
  std::unique_ptr<pint::ByteStream> inner_;
  Tracer& tracer_;
  bool corrupt_;
  std::vector<std::uint8_t> scratch_;
};

// Untimed verification capture: the full record stream in a compact form.
class CaptureObserver final : public pint::SinkObserver {
 public:
  void on_observation(const pint::SinkContext& ctx, std::string_view query,
                      const pint::Observation& obs) override;
  void on_path_decoded(const pint::SinkContext& ctx, std::string_view query,
                       const std::vector<pint::SwitchId>& path) override;

  std::size_t size() const { return records_.size(); }
  // Records stable-sorted by packet id and re-encoded with the report
  // codec: the order-free form two record streams are compared in.
  std::vector<std::uint8_t> canonical_bytes() const;
  // One hash per record, sorted: the multiset missing/extra/corrupt
  // records are counted against.
  std::vector<std::uint64_t> record_hashes() const;
  // Records in arrival order, for the isolated codec measurement.
  void replay_into(pint::ReportEncoder& encoder) const;
  // Record counts per epoch of `traffic`.
  std::vector<std::uint32_t> epoch_counts(const Traffic& traffic) const;

 private:
  struct Rec {
    pint::SinkContext ctx;
    pint::Observation obs;
    std::uint32_t path_off = 0;
    std::uint16_t path_len = 0;
    std::uint8_t query = 0;
    bool path_event = false;
  };
  std::uint8_t intern(std::string_view query);
  std::vector<std::uint32_t> sorted_order() const;
  void add_to(pint::ReportEncoder& encoder, const Rec& rec,
              std::vector<pint::SwitchId>& path) const;

  std::vector<std::string> names_;
  std::vector<Rec> records_;
  std::vector<pint::SwitchId> path_pool_;
};

// Missing + extra records between two sorted hash multisets.
std::uint64_t multiset_difference(const std::vector<std::uint64_t>& a,
                                  const std::vector<std::uint64_t>& b);

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

}  // namespace perfbench
