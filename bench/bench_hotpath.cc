// End-to-end sink hot-path benchmark: packets/sec through
// at_switch -> ShardedSink -> report codec -> framed fan-in -> observers,
// with a light and a heavy observer and across worker counts, plus stage
// micro-benchmarks:
//
//   * decode: materializing decode()+dispatch vs zero-copy streaming
//     dispatch();
//   * RecordingStore create/evict churn over its slab arena.
//
// One correctness gate runs inside the bench: every config must deliver
// every observer event and produce fan-in output canonically byte-identical
// to a monolithic sink.
//
// Results print as rows and, with --json=PATH or PINT_BENCH_JSON, land in
// the bench-json schema for tools/check_bench_regression.py (see
// docs/PERFORMANCE.md for the methodology and BENCH_baseline.json for the
// checked-in snapshot).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "pint/frame.h"
#include "pint/framework.h"
#include "pint/recording_store.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"
#include "sim/fanin.h"

namespace pint::bench {
namespace {

constexpr unsigned kHops = 5;

struct Workload {
  std::vector<Packet> packets;
  std::size_t flows = 0;
};

PintFramework::Builder three_query_builder() {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = 1e6;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 32; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xC0FFEE)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    15.0 / 16.0, latency_tuning))
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0 / 16.0,
          cc_tuning));
  return builder;
}

FiveTuple tuple_of_flow(std::size_t flow) {
  FiveTuple t;
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow % 251);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow % 199);
  t.src_port = static_cast<std::uint16_t>(1000 + flow % 50000);
  t.dst_port = 80;
  return t;
}

// Flows interleaved round-robin, digests encoded by a "network" replica.
// Returns the workload plus the measured at_switch encode rate.
Workload make_traffic(std::size_t flows, std::size_t packets_per_flow,
                      double* encode_pps) {
  const auto network = three_query_builder().build_or_throw();
  Workload w;
  w.flows = flows;
  w.packets.reserve(flows * packets_per_flow);
  PacketId next_id = 1;
  for (std::size_t j = 0; j < packets_per_flow; ++j) {
    for (std::size_t f = 0; f < flows; ++f) {
      Packet p;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      w.packets.push_back(std::move(p));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (HopIndex i = 1; i <= kHops; ++i) {
    // Batched per hop is the real switch shape: every packet crossing one
    // switch under one view. Flows still need per-flow paths, so encode
    // per flow-group via the scalar path (view differs per flow).
    for (Packet& p : w.packets) {
      const std::size_t f = (p.id - 1) % w.flows;
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f % 97));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.001 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (encode_pps != nullptr) {
    *encode_pps =
        static_cast<double>(w.packets.size()) * kHops / dt.count();
  }
  return w;
}

// Sink-side "application": per-event work of tunable weight, the expensive
// dashboard/detector an operator hangs off the sink. FNV-mixing loops are
// deterministic, unoptimizable-away work.
struct DashboardObserver : SinkObserver {
  unsigned work = 0;
  std::uint64_t events = 0;
  std::uint64_t acc = 0xcbf29ce484222325ULL;

  void on_observation(const SinkContext& ctx, std::string_view,
                      const Observation&) override {
    ++events;
    std::uint64_t h = acc ^ ctx.flow ^ ctx.packet_id;
    for (unsigned i = 0; i < work; ++i) h = (h ^ (h >> 29)) * 0x100000001B3ULL;
    acc = h;
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view,
                       const std::vector<SwitchId>& path) override {
    ++events;
    std::uint64_t h = acc ^ ctx.flow ^ path.size();
    for (unsigned i = 0; i < work; ++i) h = (h ^ (h >> 29)) * 0x100000001B3ULL;
    acc = h;
  }
};

// Collector-side record capture for the identity gate.
struct CollectingObserver : SinkObserver {
  struct Rec {
    SinkContext ctx;
    std::string query;
    bool path_event = false;
    Observation obs{};
    std::vector<SwitchId> path;
  };
  std::vector<Rec> records;

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    records.push_back({ctx, std::string(query), false, obs, {}});
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    records.push_back({ctx, std::string(query), true, {}, path});
  }
};

std::vector<std::uint8_t> canonical_bytes(
    std::vector<CollectingObserver::Rec> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) {
                     return a.ctx.packet_id < b.ctx.packet_id;
                   });
  ReportEncoder enc;
  for (const auto& rec : records) {
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.obs);
    }
  }
  return enc.finish();
}

struct PipelineConfig {
  std::string name;
  unsigned observer_work = 0;
  unsigned shards = 2;
};

struct PipelineRun {
  double pps = 0;
  std::uint64_t sink_events = 0;     // delivered to sink-side observers
  std::uint64_t fanin_records = 0;   // records the collector replayed
  std::vector<std::uint8_t> canonical;  // fan-in output, canonicalized
};

// One timed pass: submit everything, flush, codec-chunk, frame, ingest.
PipelineRun run_pipeline(const Workload& w, const PipelineConfig& cfg) {
  ShardedSink sink(three_query_builder(), cfg.shards);
  DashboardObserver dashboard;
  dashboard.work = cfg.observer_work;
  ReportEncoder encoder;
  EncodingObserver tap(encoder);
  sink.add_observer(&dashboard);
  sink.add_observer(&tap);

  FanInCollector collector;
  CollectingObserver collected;
  collector.add_observer(&collected);
  FrameWriter writer(/*source=*/1);

  constexpr std::size_t kSubmitBatch = 512;
  constexpr std::size_t kFrameRecords = 1024;
  const std::span<const Packet> packets(w.packets);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> wire;
  for (std::size_t off = 0; off < packets.size(); off += kSubmitBatch) {
    const std::size_t n = std::min(kSubmitBatch, packets.size() - off);
    sink.submit(packets.subspan(off, n), kHops);
  }
  sink.flush();
  wire = writer.make_open();
  for (const std::vector<std::uint8_t>& chunk :
       encoder.finish_chunked(kFrameRecords)) {
    const std::vector<std::uint8_t> frame = writer.make_payload(chunk);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  {
    const std::vector<std::uint8_t> close = writer.make_close();
    wire.insert(wire.end(), close.begin(), close.end());
  }
  collector.ingest_stream(1, wire);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;

  PipelineRun run;
  run.pps = static_cast<double>(packets.size()) / dt.count();
  run.sink_events = dashboard.events;
  run.fanin_records = collector.records_ingested();
  run.canonical = canonical_bytes(std::move(collected.records));
  return run;
}

// Best-of-N wall-clock over the whole config matrix, rep-major: each rep
// builds a fresh pipeline (stores start empty), so reps are independent
// and the best rep is the least-disturbed. Interleaving the configs
// inside each rep — rather than running one config's reps back to back —
// means a slow noise epoch on the host degrades every config's draw for
// that rep equally instead of biasing whichever config it landed on.
std::vector<PipelineRun> best_of_matrix(const Workload& w,
                                        const std::vector<PipelineConfig>& cfgs,
                                        unsigned reps) {
  std::vector<PipelineRun> best(cfgs.size());
  for (unsigned r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      PipelineRun run = run_pipeline(w, cfgs[i]);
      if (run.pps > best[i].pps) best[i] = std::move(run);
    }
  }
  return best;
}

// Monolithic single-framework reference for the identity gate.
std::vector<std::uint8_t> monolithic_canonical(const Workload& w) {
  const auto fw = three_query_builder().build_or_throw();
  CollectingObserver collected;
  fw->add_observer(&collected);
  fw->at_sink(std::span<const Packet>(w.packets), kHops);
  return canonical_bytes(std::move(collected.records));
}

// Decode-stage micro: materializing decode()+dispatch vs streaming
// zero-copy dispatch on identical buffers.
void bench_decode_stage(const Workload& w, unsigned reps, JsonWriter& json) {
  // Real buffers: the workload's own observer stream, chunked.
  const auto fw = three_query_builder().build_or_throw();
  ReportEncoder encoder;
  EncodingObserver tap(encoder);
  fw->add_observer(&tap);
  fw->at_sink(std::span<const Packet>(w.packets), kHops);
  const std::vector<std::vector<std::uint8_t>> buffers =
      encoder.finish_chunked(1024);

  struct NullObserver : SinkObserver {
    std::uint64_t events = 0;
    void on_observation(const SinkContext&, std::string_view,
                        const Observation&) override {
      ++events;
    }
    void on_path_decoded(const SinkContext&, std::string_view,
                         const std::vector<SwitchId>&) override {
      ++events;
    }
  };

  double mat_rps = 0;
  double zc_rps = 0;
  std::uint64_t mat_events = 0;
  std::uint64_t zc_events = 0;
  for (unsigned r = 0; r < reps; ++r) {
    {
      ReportDecoder dec;
      NullObserver obs;
      SinkObserver* observers[] = {&obs};
      std::uint64_t records = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& buf : buffers) {
        std::vector<StreamRecord> out;
        if (dec.decode(buf, out)) {
          dispatch(out, observers);
          records += out.size();
        }
      }
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      mat_rps = std::max(mat_rps, static_cast<double>(records) / dt.count());
      mat_events = obs.events;
    }
    {
      ReportDecoder dec;
      NullObserver obs;
      SinkObserver* observers[] = {&obs};
      std::uint64_t records = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& buf : buffers) {
        std::ignore = dec.dispatch(buf, observers, &records);
      }
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      zc_rps = std::max(zc_rps, static_cast<double>(records) / dt.count());
      zc_events = obs.events;
    }
  }
  if (mat_events != zc_events) {
    std::printf("GATE FAILED: decode paths disagree (%llu vs %llu events)\n",
                static_cast<unsigned long long>(mat_events),
                static_cast<unsigned long long>(zc_events));
    std::exit(1);
  }
  row("  decode materialize         %12.0f records/s", mat_rps);
  row("  decode zero-copy dispatch  %12.0f records/s   (%.2fx)", zc_rps,
      zc_rps / mat_rps);
  json.add("bench_hotpath", "decode_materialize", "records_per_sec", mat_rps,
           "rps");
  json.add("bench_hotpath", "decode_zerocopy", "records_per_sec", zc_rps,
           "rps");
}

// RecordingStore churn micro: create/evict cycling at a full ceiling.
void bench_store_stage(bool smoke, unsigned reps, JsonWriter& json) {
  using Store = RecordingStore<std::vector<std::uint64_t>>;
  const std::size_t touches = smoke ? 50'000 : 2'000'000;
  double best = 0;
  for (unsigned r = 0; r < reps; ++r) {
    Store store(
        64 << 10, [](std::uint64_t key) {
          return std::vector<std::uint64_t>(8, key);
        },
        [](const std::vector<std::uint64_t>& v) {
          return vector_entry_bytes(v);
        });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < touches; ++i) {
      store.touch(i % 100'000);  // far more flows than the ceiling holds
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::max(best, static_cast<double>(touches) / dt.count());
  }
  row("  store churn arena          %12.0f touches/s", best);
  json.add("bench_hotpath", "store_churn_arena", "touches_per_sec", best,
           "tps");
}

int run(int argc, char** argv) {
  const bool smoke = smoke_mode(argc, argv);
  header("bench_hotpath: end-to-end sink hot path (PR 5)");
  if (smoke) note_smoke();

  const std::size_t flows = smoke ? 80 : 600;
  const std::size_t packets_per_flow = smoke ? 10 : 60;
  // Each pipeline pass times a ~50 ms window; co-tenant interference on
  // the CI host swings single draws by ±15%+. Best-of-7 converges both
  // sides of every before/after ratio to their least-disturbed draw.
  const unsigned reps = smoke ? 1 : 7;
  constexpr unsigned kHeavyWork = 192;  // FNV rounds per observer event

  double encode_pps = 0;
  const Workload w = make_traffic(flows, packets_per_flow, &encode_pps);
  row("workload: %zu flows x %zu packets, %u hops, 3-query mix", flows,
      packets_per_flow, kHops);
  row("  at_switch encode           %12.0f hop-encodes/s", encode_pps);

  JsonWriter json;
  row("  host profile               %12s",
      JsonWriter::default_profile().c_str());
  json.add("bench_hotpath", "at_switch", "hop_encodes_per_sec", encode_pps,
           "eps");

  const std::vector<std::uint8_t> reference = monolithic_canonical(w);

  // The measured matrix. *_heavy configs model an expensive sink-side
  // observer (dashboard/detector).
  const std::vector<PipelineConfig> configs = {
      {"pipeline_arena_light", 0},
      {"pipeline_arena_heavy", kHeavyWork},
  };
  // Worker thread-scaling matrix: how the sink behaves as the worker
  // (shard) pool grows. On a 1-core host every row is oversubscribed and
  // the series documents scheduling overhead, not speedup — which is
  // exactly why the numbers are keyed by host profile (see bench_json.h)
  // and only ever compared within one profile.
  std::vector<PipelineConfig> scaling;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    PipelineConfig cfg;
    cfg.name = "scale_workers_" + std::to_string(workers);
    cfg.shards = workers;
    scaling.push_back(std::move(cfg));
  }

  // Gate: every config delivers every event (the first run sets the count)
  // and its fan-in output is byte-identical (canonicalized) to the
  // monolithic sink, whatever the observer cost or worker count.
  std::uint64_t total_events = 0;
  const auto report = [&](const std::vector<PipelineConfig>& cfgs) {
    row("%-28s %14s %10s", "config", "packets/s", "events");
    const std::vector<PipelineRun> results = best_of_matrix(w, cfgs, reps);
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      const PipelineConfig& cfg = cfgs[ci];
      const PipelineRun& result = results[ci];
      row("%-28s %14.0f %10llu", cfg.name.c_str(), result.pps,
          static_cast<unsigned long long>(result.sink_events));
      json.add("bench_hotpath", cfg.name, "packets_per_sec", result.pps,
               "pps");
      if (total_events == 0) total_events = result.sink_events;
      if (result.canonical != reference) {
        std::printf("GATE FAILED: %s fan-in output differs from monolithic\n",
                    cfg.name.c_str());
        return false;
      }
      if (result.sink_events != total_events) {
        std::printf("GATE FAILED: %s lost observer events (%llu/%llu)\n",
                    cfg.name.c_str(),
                    static_cast<unsigned long long>(result.sink_events),
                    static_cast<unsigned long long>(total_events));
        return false;
      }
    }
    return true;
  };
  if (!report(configs)) return 1;
  header("thread scaling (workers)");
  if (!report(scaling)) return 1;
  row("gate: fan-in identity and event delivery exact OK");

  header("stage micro-benchmarks");
  bench_decode_stage(w, reps, json);
  bench_store_stage(smoke, reps, json);

  if (!json.write(JsonWriter::path_from(argc, argv), smoke)) return 1;
  return 0;
}

}  // namespace
}  // namespace pint::bench

int main(int argc, char** argv) { return pint::bench::run(argc, argv); }
