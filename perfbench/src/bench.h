// One workload's pipeline, built from the collection path's public parts:
//
//   network: PintFramework::at_switch per hop, pack_wire
//   sink:    unpack_wire, FanInSender (ShardedSink -> ReportEncoder ->
//            FrameWriter) over a ByteStream
//   stream:  SpscRingStream pumped in process, or (traced daemon passes)
//            SocketSenderStream to a CollectorDaemon over localhost TCP
//   collect: FanInCollector behind a timing StreamIngest, then observers
//
// A rep runs one workload's packets through a freshly built pipeline, so
// every rep starts from empty Recording-Module state. The loop is closed:
// one thread encodes, delivers and ships each epoch in turn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness.h"
#include "trace.h"
#include "traffic.h"

namespace perfbench {

// What one rep saw, read after the pipeline has quiesced.
struct RepResult {
  std::int64_t t_first_ns = 0;  // first at_switch
  std::int64_t t_last_ns = 0;   // last record reached the observer
  std::vector<std::uint32_t> received;  // records per epoch
  // Per epoch: ms from its first at_switch to its ship_epoch call.
  std::vector<double> produce_ms;
  std::size_t flows_decoded = 0;
  std::uint64_t bogus_records = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t incomplete_epochs = 0;
  std::uint64_t epochs_completed = 0;
  std::uint64_t decode_failures = 0;
  bool sources_ended = true;
  // Sender side.
  std::uint64_t frames_shipped = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t blocked_waits = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resync_discarded = 0;
  std::uint64_t evictions = 0;
  std::size_t store_used_bytes = 0;
  std::uint64_t wire_bytes = 0;

  double pps(std::size_t packets) const {
    return static_cast<double>(packets) * 1e9 /
           static_cast<double>(t_last_ns - t_first_ns);
  }
};

class Bench {
 public:
  // Builds the inputs for `spec` from `seed`: traffic, the encoded
  // packets and, unless the workload is memory-bounded, the monolithic
  // reference the collector output must match.
  Bench(WorkloadSpec spec, std::uint64_t seed, bool corrupt_one_frame);

  // One pass through a fresh pipeline. `capture` (untimed verification
  // passes only) receives every collector record; `freshness` collects
  // samples from timed reps. `over_daemon` ships over a CollectorDaemon on
  // localhost TCP, with the src/apps/ detectors at the collector, instead
  // of the in-memory ring.
  RepResult run_rep(bool traced, CaptureObserver* capture,
                    std::vector<WeightedSample>* freshness,
                    bool over_daemon = false);

  // Failed records in a rep against the expected per-epoch counts:
  // missing, extra, unattributable, frame errors and epochs that did not
  // complete (every record of an epoch whose count is off counts).
  std::uint64_t accounting_failures(const RepResult& rep) const;

  // Checks a verification capture: byte identity with the monolithic
  // reference, or for the bounded workload with the first capture's hash.
  // Returns failed records (0 when identical).
  std::uint64_t verify_capture(const CaptureObserver& capture);

  const Traffic& traffic() const { return traffic_; }
  std::uint64_t expected_records() const { return expected_total_; }
  bool has_monolithic_reference() const { return !ref_canonical_.empty(); }
  const std::vector<pint::Packet>& sink_packets() const { return rx_all_; }
  Tracer& producer_tracer() { return producer_; }
  Tracer& collector_tracer() { return collector_; }

 private:
  WorkloadSpec spec_;
  Traffic traffic_;
  bool corrupt_;
  std::unique_ptr<pint::PintFramework> network_;  // the switches' replica
  std::vector<pint::Packet> tx_;      // re-encoded each rep
  std::vector<pint::Packet> rx_all_;  // encoded, as the sink receives them
  std::vector<std::uint64_t> hop_prefix_;  // hops of packets [0, p)
  // Reference: expected records per epoch, plus the canonical output.
  std::vector<std::uint32_t> expected_;
  std::uint64_t expected_total_ = 0;
  std::vector<std::uint8_t> ref_canonical_;
  std::vector<std::uint64_t> ref_hashes_;
  std::uint64_t ref_hash_ = 0;
  bool have_ref_hash_ = false;
  // Epoch ends as offsets from base_ns_ (the rep's start), written by this
  // thread and read by the daemon's thread in daemon passes.
  std::vector<std::atomic<std::int64_t>> epoch_end_ns_;
  std::atomic<std::int64_t> base_ns_{0};
  // Reused per-batch buffers.
  std::vector<std::vector<std::uint8_t>> wire_;
  std::vector<pint::Packet> rx_;
  std::vector<std::uint8_t> pump_buf_;
  Tracer producer_{"producer"};
  Tracer collector_{"collector"};
};

}  // namespace perfbench
