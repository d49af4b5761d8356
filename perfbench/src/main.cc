// The PINT collection-path benchmark. One run = one workload:
//
//   perfbench --workload replay_inproc|churn_bounded
//             --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-frame]
//             [--spans PATH]
//
// Set-up (input generation, monolithic reference, one verified warm-up
// pass) runs three times and reports its median. Then reps run for S
// seconds. `--trace 0` prints the end-to-end metrics, each the median over
// every epoch of the untraced reps; `--trace 1` alternates untraced and
// traced reps, then runs two traced passes over a CollectorDaemon, and
// prints the per-layer metrics (README.md lists both). The last stdout
// line is one JSON object. The exit code is non-zero when any record
// failed or a correctness check did not hold.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "pint/frame.h"
#include "pint/report_codec.h"

namespace perfbench {
namespace {

using namespace pint;

constexpr int kSetups = 3;
constexpr std::size_t kMinReps = 3;
// Traced runs: the producer thread's layer spans must cover all but this
// share of its wall time.
constexpr double kWaterfallTolerance = 0.05;
// Traced runs end with this many passes over the CollectorDaemon; their
// spans carry rep ids from kDaemonRepBase.
constexpr int kDaemonPasses = 2;
constexpr std::uint32_t kDaemonRepBase = 1'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt-frame") {
      o.corrupt = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !o.workload.empty();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Per-epoch figures. An epoch runs from its first at_switch to its last
// record reaching the collector-side observer; in the closed loop the
// epochs of a rep follow one another, so the median over every epoch of a
// run is the run's typical rate and freshness, which a host stall in a
// few epochs does not move.
struct EpochStats {
  std::vector<double> pps;
  std::vector<double> fresh_p50;  // per epoch, weighted by record
  std::vector<double> fresh_p99;

  // Adds one rep's epochs; `samples` are the rep's freshness samples.
  void add(const Traffic& traffic, const RepResult& rep,
           std::span<const WeightedSample> samples) {
    std::vector<std::vector<WeightedSample>> by_epoch(traffic.epochs);
    for (const WeightedSample& s : samples) by_epoch[s.epoch].push_back(s);
    for (unsigned e = 0; e < traffic.epochs; ++e) {
      if (by_epoch[e].empty()) continue;
      const double last_ms = weighted_quantile(by_epoch[e], 1.0);
      const double packets =
          traffic.epoch_begin[e + 1] - traffic.epoch_begin[e];
      pps.push_back(packets * 1e3 / (rep.produce_ms[e] + last_ms));
      fresh_p50.push_back(weighted_quantile(by_epoch[e], 0.50));
      fresh_p99.push_back(weighted_quantile(by_epoch[e], 0.99));
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note)});
  }
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

// Sums spans by layer name: busy and self time, calls, and durations.
struct LayerTotals {
  std::map<std::string, double> busy_ns;
  std::map<std::string, double> self_ns;
  std::map<std::string, double> calls;
  std::map<std::string, std::vector<double>> durations_ms;

  // Adds spans [first, last) of one tracer; parents precede children.
  void add(const Tracer& tracer, std::size_t first = 0,
           std::size_t last = SIZE_MAX) {
    const std::vector<Span>& spans = tracer.spans();
    last = std::min(last, spans.size());
    std::vector<double> child_busy(spans.size(), 0);
    for (std::size_t i = first; i < last; ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) {
        child_busy[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.busy_ns);
      }
    }
    for (std::size_t i = first; i < last; ++i) {
      const Span& s = spans[i];
      busy_ns[s.name] += static_cast<double>(s.busy_ns);
      self_ns[s.name] += static_cast<double>(s.busy_ns) - child_busy[i];
      calls[s.name] += static_cast<double>(s.count);
      durations_ms[s.name].push_back(static_cast<double>(s.busy_ns) / 1e6);
    }
  }
  double get(const std::map<std::string, double>& m, const char* name) const {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  double per(const char* name, double denominator) const {
    return denominator > 0 ? get(self_ns, name) / denominator : 0;
  }
};

void write_spans(const std::string& path, const Options& o,
                 const std::vector<const Tracer*>& tracers) {
  std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  std::ofstream out(file);
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
          << ",\"thread\":\"" << tracer->thread() << "\",\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep
          << ",\"epoch\":" << s.epoch << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"busy_ns\":" << s.busy_ns << ",\"count\":" << s.count
          << "}\n";
    }
  }
  std::printf("spans: %s\n", path.c_str());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Isolated layer timings on the workload's own data (traced runs only).
struct Isolated {
  double at_sink_ns_per_pkt = 0;
  double encode_ns_per_rec = 0;
  double decode_ns_per_rec = 0;
  double bytes_per_rec = 0;
  double frame_ns_per_kib = 0;
};

struct NullObserver final : SinkObserver {};

Isolated measure_isolated(const Bench& bench, const CaptureObserver& capture) {
  std::vector<double> at_sink;
  std::vector<double> encode;
  std::vector<double> decode;
  std::vector<double> frame;
  Isolated out;
  const auto& packets = bench.sink_packets();
  const double records = static_cast<double>(capture.size());
  for (int rep = 0; rep < 3; ++rep) {
    {
      const auto replica = bench.traffic().builder.build_or_throw();
      SinkReport report;
      const std::int64_t t0 = now_ns();
      for (std::size_t p = 0; p < packets.size(); ++p) {
        replica->at_sink(packets[p], bench.traffic().hops_of(p), report);
      }
      at_sink.push_back(static_cast<double>(now_ns() - t0) /
                        static_cast<double>(packets.size()));
    }
    ReportEncoder encoder;
    std::int64_t t0 = now_ns();
    capture.replay_into(encoder);
    const std::vector<std::vector<std::uint8_t>> chunks =
        encoder.finish_chunked(1024);
    encode.push_back(static_cast<double>(now_ns() - t0) / records);
    double bytes = 0;
    for (const auto& chunk : chunks) bytes += static_cast<double>(chunk.size());
    out.bytes_per_rec = bytes / records;

    ReportDecoder decoder;
    NullObserver null_observer;
    SinkObserver* observers[] = {&null_observer};
    t0 = now_ns();
    for (const auto& chunk : chunks) {
      if (!decoder.dispatch(chunk, observers)) std::abort();
    }
    decode.push_back(static_cast<double>(now_ns() - t0) / records);

    FrameWriter writer(1);
    std::vector<std::uint8_t> stream;
    t0 = now_ns();
    std::vector<std::uint8_t> frame_bytes = writer.make_open();
    stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
    for (const auto& chunk : chunks) {
      frame_bytes = writer.make_payload(chunk);
      stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
    }
    frame_bytes = writer.make_close();
    stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
    FrameReassembler reassembler;
    reassembler.feed(stream);
    std::size_t events = 0;
    while (reassembler.next_view()) ++events;
    frame.push_back(static_cast<double>(now_ns() - t0) / (bytes / 1024.0));
    if (events != chunks.size() + 2) std::abort();
  }
  out.at_sink_ns_per_pkt = median(at_sink);
  out.encode_ns_per_rec = median(encode);
  out.decode_ns_per_rec = median(decode);
  out.frame_ns_per_kib = median(frame);
  return out;
}

// The traced run's per-layer metrics and waterfall. The ring reps' spans
// are the producer's first `ring_spans`; the daemon passes' spans follow,
// plus every span of the daemon's thread. Returns false when the producer's
// layer spans leave more than the tolerance of a ring rep unaccounted.
bool report_layers(Bench& bench, const std::vector<RepResult>& traced_reps,
                   std::size_t ring_spans,
                   const std::vector<RepResult>& daemon_reps,
                   double overhead_ratio, const CaptureObserver& final_capture,
                   Report& report) {
  LayerTotals layers;
  layers.add(bench.producer_tracer(), 0, ring_spans);
  LayerTotals daemon;
  daemon.add(bench.collector_tracer());
  const Traffic& traffic = bench.traffic();
  const double reps = static_cast<double>(traced_reps.size());
  const double packets = static_cast<double>(traffic.packets.size()) * reps;
  const double records = static_cast<double>(bench.expected_records()) * reps;
  const double epochs = static_cast<double>(traffic.epochs) * reps;
  const double hops = static_cast<double>(traffic.total_hops) * reps;
  const auto total = [&](auto field) {
    double sum = 0;
    for (const RepResult& r : traced_reps) sum += static_cast<double>(r.*field);
    return sum;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0;
  };
  std::vector<double> evictions_per_kpkt;
  std::vector<double> used_mib;
  for (const RepResult& r : traced_reps) {
    evictions_per_kpkt.push_back(static_cast<double>(r.evictions) * 1000.0 /
                                 static_cast<double>(traffic.packets.size()));
    used_mib.push_back(static_cast<double>(r.store_used_bytes) / 1048576.0);
  }
  const double wall_ns = layers.get(layers.busy_ns, "rep");
  const double unaccounted = ratio(layers.get(layers.self_ns, "rep"), wall_ns);
  const Isolated iso = measure_isolated(bench, final_capture);

  report.add("pint.at_switch.ns_per_hop", layers.per("pint.at_switch", hops),
             "ns");
  report.add("pint.wire.ns_per_pkt", layers.per("pint.wire", packets), "ns");
  report.add("pint.wire.bytes_per_pkt",
             ratio(total(&RepResult::wire_bytes), packets), "bytes");
  report.add("pint.sink.submit_ns_per_pkt",
             layers.per("pint.sink.submit", packets), "ns");
  report.add("pint.sink.flush_wait_ms_p50",
             quantile(layers.durations_ms["pint.sink.flush"], 0.5), "ms");
  report.add("pint.at_sink.ns_per_pkt", iso.at_sink_ns_per_pkt, "ns");
  report.add("pint.store.evictions_per_kpkt", median(evictions_per_kpkt),
             "1/kpkt");
  report.add("pint.store.used_mib", median(used_mib), "MiB");
  report.add("pint.codec.encode_ns_per_rec", iso.encode_ns_per_rec, "ns");
  report.add("pint.codec.decode_ns_per_rec", iso.decode_ns_per_rec, "ns");
  report.add("pint.codec.bytes_per_rec", iso.bytes_per_rec, "bytes");
  report.add("pint.frame.ns_per_kib", iso.frame_ns_per_kib, "ns");
  report.add("pint.frame.frames_per_epoch",
             ratio(total(&RepResult::frames_shipped), epochs), "count");
  report.add("pint.ship.ms_p50",
             quantile(layers.durations_ms["pint.ship"], 0.5), "ms");
  report.add("pint.ship.ms_p99",
             quantile(layers.durations_ms["pint.ship"], 0.99), "ms");
  report.add("pint.ship.blocked_waits",
             ratio(total(&RepResult::blocked_waits), reps), "count");
  report.add("transport.bytes_per_pkt",
             ratio(total(&RepResult::bytes_shipped), packets), "bytes");
  report.add("transport.frames_dropped", total(&RepResult::frames_dropped),
             "count");
  double resync = 0;
  double reconnects = 0;
  for (const RepResult& r : daemon_reps) {
    resync += static_cast<double>(r.resync_discarded);
    reconnects += static_cast<double>(r.reconnects);
  }
  report.add("transport.resync_discarded", resync, "count");
  report.add("transport.reconnects", reconnects, "count");
  report.add("sim.fanin.ingest_ns_per_rec",
             layers.per("sim.fanin.ingest", records), "ns");
  report.add("sim.fanin.busy_share",
             ratio(layers.get(layers.busy_ns, "sim.fanin.ingest"), wall_ns),
             "ratio");
  report.add("sim.fanin.frame_errors", total(&RepResult::frame_errors),
             "count");
  report.add("sim.fanin.incomplete_epochs",
             total(&RepResult::incomplete_epochs), "count");
  report.add("apps.ns_per_rec",
             daemon.per("apps", static_cast<double>(bench.expected_records()) *
                                    static_cast<double>(daemon_reps.size())),
             "ns");
  report.add("trace.unaccounted_share", unaccounted, "ratio");
  report.add("trace.overhead_ratio", overhead_ratio, "ratio");

  // The waterfall: self time per layer on the producer thread, whose
  // spans tile each ring rep.
  std::printf("waterfall (self time, share of traced producer wall "
              "%.1f ms over %zu ring reps):\n",
              wall_ns / 1e6, traced_reps.size());
  for (const auto& [name, self] : layers.self_ns) {
    std::printf("  %-24s %10.2f ms %6.1f%%  (%.0f calls)\n", name.c_str(),
                self / 1e6, 100.0 * ratio(self, wall_ns), layers.calls[name]);
  }
  LayerTotals daemon_producer;
  daemon_producer.add(bench.producer_tracer(), ring_spans);
  const double daemon_wall =
      daemon_producer.get(daemon_producer.busy_ns, "rep");
  std::printf("daemon passes (self time, share of their producer wall "
              "%.1f ms over %zu passes):\n",
              daemon_wall / 1e6, daemon_reps.size());
  for (const auto* totals : {&daemon_producer, &daemon}) {
    for (const auto& [name, self] : totals->self_ns) {
      std::printf("  %-9s %-22s %10.2f ms %6.1f%%\n",
                  totals == &daemon ? "collector" : "producer", name.c_str(),
                  self / 1e6, 100.0 * ratio(self, daemon_wall));
    }
  }
  if (unaccounted <= kWaterfallTolerance) return true;
  std::printf("CHECK FAILED: layer spans leave %.1f%% of the producer's "
              "wall time unaccounted (tolerance %.0f%%)\n",
              100 * unaccounted, 100 * kWaterfallTolerance);
  return false;
}

int run(const Options& o) {
  const WorkloadSpec spec = workload_spec(o.workload, o.smoke);
  std::printf("perfbench: workload %s seed %llu seconds %.1f trace %d%s%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "",
              o.corrupt ? " corrupt-frame" : "");

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool identity_ok = true;
  const auto verify = [&](Bench& bench, const RepResult& rep,
                          const CaptureObserver& capture, const char* what) {
    const std::uint64_t mismatched = bench.verify_capture(capture);
    const std::uint64_t lost = bench.accounting_failures(rep);
    attempted += bench.expected_records();
    failed += mismatched + lost;
    if (mismatched > 0) {
      identity_ok = false;
      std::printf("CHECK FAILED: %s output is not identical to the %s "
                  "(%llu records differ)\n",
                  what,
                  bench.has_monolithic_reference() ? "monolithic reference"
                                                   : "first capture",
                  static_cast<unsigned long long>(mismatched));
    }
  };

  // Set-up, several times: the median is the set-up metric, and every
  // warm-up pass is verified.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    const std::int64_t t0 = now_ns();
    bench = std::make_unique<Bench>(spec, o.seed, o.corrupt);
    CaptureObserver capture;
    const RepResult warm = bench->run_rep(false, &capture, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    verify(*bench, warm, capture, "warm-up");
  }
  const Traffic& traffic = bench->traffic();
  const std::size_t packets = traffic.packets.size();
  std::printf("inputs: %zu packets, %zu flows, %u epochs, %.2f hops per "
              "packet, %llu expected records\n",
              packets, traffic.flows_offered, traffic.epochs,
              static_cast<double>(traffic.total_hops) /
                  static_cast<double>(packets),
              static_cast<unsigned long long>(bench->expected_records()));

  // Timed reps. Freshness samples go to a buffer sized here.
  std::vector<WeightedSample> freshness;
  freshness.reserve(1 << 20);
  EpochStats epochs;  // of the untraced reps
  std::vector<double> pps_untraced;
  std::vector<double> pps_traced;
  std::vector<double> decoded_ratio;
  std::vector<RepResult> traced_reps;
  const bool bounded = spec.memory_ceiling_bytes > 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (std::uint32_t rep = 0; rep < kMinReps || now_ns() < deadline; ++rep) {
    const bool traced = o.trace && rep % 2 == 1;
    bench->producer_tracer().set_rep(rep);
    const std::size_t first_sample = freshness.size();
    RepResult r =
        bench->run_rep(traced, nullptr, traced ? nullptr : &freshness);
    if (!traced) {
      epochs.add(traffic, r,
                 std::span<const WeightedSample>(freshness).subspan(
                     first_sample));
    }
    attempted += bench->expected_records();
    failed += bench->accounting_failures(r);
    (traced ? pps_traced : pps_untraced).push_back(r.pps(packets));
    decoded_ratio.push_back(static_cast<double>(r.flows_decoded) /
                            static_cast<double>(traffic.flows_offered));
    if (bounded) {
      // Bounded output is checked on every rep, in an untimed pass.
      CaptureObserver capture;
      const RepResult check = bench->run_rep(false, &capture, nullptr);
      verify(*bench, check, capture, "bounded rep");
    }
    if (traced) {
      r.received.clear();
      traced_reps.push_back(std::move(r));
    }
  }
  // Traced runs: the daemon passes time the socket transport, the
  // CollectorDaemon's ingest and the apps on the same packets.
  const std::size_t ring_spans = bench->producer_tracer().spans().size();
  std::vector<RepResult> daemon_reps;
  for (int i = 0; o.trace && i < kDaemonPasses; ++i) {
    bench->producer_tracer().set_rep(kDaemonRepBase + i);
    bench->collector_tracer().set_rep(kDaemonRepBase + i);
    RepResult d = bench->run_rep(true, nullptr, nullptr, /*over_daemon=*/true);
    attempted += bench->expected_records();
    failed += bench->accounting_failures(d);
    d.received.clear();
    daemon_reps.push_back(std::move(d));
  }

  CaptureObserver final_capture;
  {
    const RepResult check = bench->run_rep(false, &final_capture, nullptr);
    verify(*bench, check, final_capture, "final verification");
  }

  failed = std::min(failed, attempted);
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("checks: %s; failed_ratio %.6f (%llu of %llu expected records "
              "failed)\n",
              identity_ok ? (bounded ? "every capture hashes identically"
                                     : "collector output byte-identical to "
                                       "the monolithic reference")
                          : "IDENTITY FAILED",
              failed_ratio, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  bool correct = failed == 0 && identity_ok;

  Report report;
  std::uint64_t fresh_records = 0;
  for (const auto& s : freshness) fresh_records += s.weight;
  const std::string epochs_note =
      "(median of " + std::to_string(epochs.pps.size()) + " epochs in " +
      std::to_string(pps_untraced.size()) + " reps)";
  const std::string fresh_note =
      "(median of " + std::to_string(epochs.fresh_p50.size()) +
      " epochs; " + std::to_string(fresh_records) + " records in " +
      std::to_string(freshness.size()) + " samples)";
  std::printf("freshness over all reps (ms): p50 %.3f p90 %.3f p99 %.3f "
              "p99.9 %.3f max %.3f\n",
              weighted_quantile(freshness, 0.5),
              weighted_quantile(freshness, 0.9),
              weighted_quantile(freshness, 0.99),
              weighted_quantile(freshness, 0.999),
              weighted_quantile(freshness, 1.0));
  std::printf("reps: e2e_pps min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
              quantile(pps_untraced, 0), quantile(pps_untraced, 0.25),
              median(pps_untraced), quantile(pps_untraced, 0.75),
              quantile(pps_untraced, 1));
  std::printf("epochs: e2e_pps q1 %.0f median %.0f q3 %.0f; freshness p99 "
              "(ms) q1 %.3f median %.3f q3 %.3f\n",
              quantile(epochs.pps, 0.25), median(epochs.pps),
              quantile(epochs.pps, 0.75), quantile(epochs.fresh_p99, 0.25),
              median(epochs.fresh_p99), quantile(epochs.fresh_p99, 0.75));
  if (!o.trace) {
    report.add("e2e_pps", median(epochs.pps), "packets/s", epochs_note);
    report.add("freshness_p50_ms", median(epochs.fresh_p50), "ms",
               fresh_note);
    report.add("freshness_p99_ms", median(epochs.fresh_p99), "ms",
               fresh_note);
    report.add("paths_decoded_ratio", median(decoded_ratio), "ratio",
               "(" + std::to_string(traffic.flows_offered) + " flows offered)");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
    report.add("setup_s", median(setup_s), "s",
               "(n=" + std::to_string(kSetups) + " set-ups, median)");
  } else {
    correct = report_layers(*bench, traced_reps, ring_spans, daemon_reps,
                            median(pps_traced) / median(pps_untraced),
                            final_capture, report) &&
              correct;
    if (!o.spans_path.empty()) {
      write_spans(o.spans_path, o,
                  {&bench->producer_tracer(), &bench->collector_tracer()});
    }
  }
  report.print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--corrupt-frame] [--spans PATH]\n");
    return 2;
  }
  // Each rep builds a fresh pipeline. Keep the heap the last one freed
  // instead of returning it to the kernel, so reps reuse resident pages
  // rather than time page faults, whose cost on a virtual machine varies
  // with the host's load.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
