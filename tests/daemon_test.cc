// Cross-process collector daemon: real sockets, real processes.
//
// Load-bearing checks: (1) N=4 forked sink processes shipping over
// unix-domain and localhost-TCP sockets produce a merged record stream
// byte-identical to a monolithic sink fed the same packets — the same
// acceptance bar the in-process fan-in holds; (2) a sink SIGKILLed
// mid-epoch surfaces as an incomplete epoch for exactly that source while
// the survivors' epochs all close complete; (3) a sender that loses its
// daemon reconnects with backoff and resynchronizes at the next epoch
// boundary, with the shed frames counted exactly and the torn epoch typed
// incomplete — never spliced; (4) FanInPipeline's daemon stream kinds
// (listener thread + socket senders) match the monolithic baseline and
// keep priority classes intact across the wire; (5) TCP senders disable
// Nagle's algorithm.
//
// Fork discipline: the parent never spawns a thread before fork() — the
// daemon is driven by poll_once() on the main thread — so these tests are
// safe under TSAN; children may spawn ShardedSink workers freely.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pint/frame.h"
#include "sim/fanin.h"
#include "transport/collector_daemon.h"
#include "transport/io_hooks.h"
#include "transport/sender.h"

namespace pint {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

constexpr unsigned kHops = 5;
constexpr std::size_t kFlows = 120;
constexpr std::size_t kPacketsPerFlow = 24;
constexpr unsigned kSinks = 4;

// Captures the full record stream so two sides can be compared exactly.
struct RecordingObserver : SinkObserver {
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

// Canonical bytes of a record stream: stable-sorted by packet id (each
// packet's records come from exactly one sink process, in order, so this
// is a total order on both streams), then re-encoded with the report
// codec — insertion-ordered name interning makes the encoding
// deterministic across processes.
std::vector<std::uint8_t> canonical_bytes(
    std::vector<RecordingObserver::Rec> records) {
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
      .seed(0xFA41)
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
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow % 13);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow % 17);
  t.src_port = static_cast<std::uint16_t>(1000 + flow);
  t.dst_port = 443;
  return t;
}

std::vector<Packet> make_encoded_traffic() {
  const auto network = three_query_builder().build_or_throw();
  std::vector<Packet> packets;
  packets.reserve(kFlows * kPacketsPerFlow);
  PacketId next_id = 1;
  for (std::size_t j = 0; j < kPacketsPerFlow; ++j) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      Packet p;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      packets.push_back(std::move(p));
    }
  }
  for (Packet& p : packets) {
    const std::size_t f = (p.id - 1) % kFlows;
    for (HopIndex i = 1; i <= kHops; ++i) {
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.01 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  return packets;
}

std::string test_socket_path(const char* tag) {
  return "/tmp/pint-daemon-test-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

// One forked sink process: builds its own FanInSender replica (the exact
// shipping code the in-process pipeline runs), connects a
// SocketSenderStream to the parent's daemon, delivers its share of the
// traffic in two epochs, and exits 0. As the victim it ships its second
// epoch's open+payloads without the close, signals readiness through
// `signal_fd`, and waits to be SIGKILLed. Child code returns exit codes
// instead of using gtest assertions (the child never returns to the test
// runner).
int run_child_sink(const std::vector<Packet>& packets, unsigned sink_index,
                   const SocketSenderConfig& socket_cfg, bool victim,
                   int signal_fd) {
  try {
    const auto builder = three_query_builder();
    auto stream = std::make_unique<SocketSenderStream>(socket_cfg);
    SocketSenderStream* raw = stream.get();
    FanInSender::Config cfg;
    cfg.shards = 2;
    cfg.batch_size = 64;
    cfg.max_frame_records = 128;
    FanInSender sender(builder, socket_cfg.source, std::move(stream), cfg);
    if (!raw->wait_connected(seconds(10))) return 2;
    const FlowDefinition partition = sender.sink().partition_definition();
    const std::size_t half = packets.size() / 2;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (i == half) sender.ship_epoch();
      const Packet& p = packets[i];
      if (FanInPipeline::route_sink(p.tuple, partition, kSinks) ==
          sink_index) {
        sender.deliver(p, kHops);
      }
    }
    if (victim) {
      // Mid-epoch death: open + payloads on the wire, no close marker.
      sender.ship_epoch(/*send_close=*/false);
      const char byte = 'x';
      if (::write(signal_fd, &byte, 1) != 1) return 3;
      for (;;) ::pause();  // parent SIGKILLs us here
    }
    sender.ship_epoch();
    sender.close();
    return 0;
  } catch (...) {
    return 9;
  }
}

struct ReapResult {
  bool exited = false;
  int exit_code = -1;
  bool signaled = false;
  int signal = 0;
};

ReapResult reap(pid_t pid) {
  ReapResult r;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return r;
  if (WIFEXITED(status)) {
    r.exited = true;
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.signaled = true;
    r.signal = WTERMSIG(status);
  }
  return r;
}

// --- handshake + peek unit tests --------------------------------------------

TEST(DaemonHello, RoundTripsAndRejectsMalformed) {
  const auto hello = encode_hello(0xDEADBEEF);
  const auto decoded =
      decode_hello(std::span<const std::uint8_t, kHelloBytes>(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, 0xDEADBEEFu);

  auto bad_magic = hello;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(
      decode_hello(std::span<const std::uint8_t, kHelloBytes>(bad_magic)));
  auto bad_version = hello;
  bad_version[4] = 99;
  EXPECT_FALSE(
      decode_hello(std::span<const std::uint8_t, kHelloBytes>(bad_version)));
  const auto zero_source = encode_hello(0);
  EXPECT_FALSE(decode_hello(
      std::span<const std::uint8_t, kHelloBytes>(zero_source)));
}

TEST(PeekFrameType, ClassifiesChunksWithoutValidation) {
  FrameWriter writer(3);
  const auto open = writer.make_open();
  const auto payload = writer.make_payload(std::vector<std::uint8_t>(8, 7));
  const auto close = writer.make_close();
  EXPECT_EQ(peek_frame_type(open), FrameType::kEpochOpen);
  EXPECT_EQ(peek_frame_type(payload), FrameType::kPayload);
  EXPECT_EQ(peek_frame_type(close), FrameType::kEpochClose);

  EXPECT_FALSE(peek_frame_type(std::vector<std::uint8_t>(8, 0)));  // short
  auto corrupt = open;
  corrupt[0] ^= 0xFF;  // bad magic
  EXPECT_FALSE(peek_frame_type(corrupt));
  corrupt = open;
  corrupt[5] = 42;  // bad type byte
  EXPECT_FALSE(peek_frame_type(corrupt));
}

// --- fork-based multi-process integration ------------------------------------

void run_forked_byte_identity(bool tcp) {
  const std::vector<Packet> packets = make_encoded_traffic();

  FanInCollector collector;
  RecordingObserver central;
  collector.add_observer(&central);
  CollectorDaemonConfig dc;
  if (tcp) {
    dc.tcp = true;  // ephemeral port
  } else {
    dc.unix_path = test_socket_path("identity");
  }
  CollectorDaemon daemon(collector, dc);

  std::vector<pid_t> pids;
  for (unsigned i = 0; i < kSinks; ++i) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      SocketSenderConfig sc;
      sc.unix_path = dc.unix_path;
      sc.tcp_port = daemon.tcp_port();
      sc.source = i + 1;
      sc.buffer_hint_bytes = 1 << 18;
      ::_exit(run_child_sink(packets, i, sc, /*victim=*/false,
                             /*signal_fd=*/-1));
    }
    pids.push_back(pid);
  }

  // Single-threaded event loop: the daemon drains all four sockets until
  // every sink's stream reaches its orderly end.
  const auto deadline = steady_clock::now() + seconds(60);
  while (daemon.sources_ended() < kSinks &&
         steady_clock::now() < deadline) {
    daemon.poll_once(10);
  }
  const bool all_ended = daemon.sources_ended() == kSinks;
  for (const pid_t pid : pids) {
    if (!all_ended) ::kill(pid, SIGKILL);
    const ReapResult r = reap(pid);
    EXPECT_TRUE(r.exited) << "child did not exit cleanly";
    EXPECT_EQ(r.exit_code, 0);
  }
  ASSERT_TRUE(all_ended) << "daemon never saw all sinks end";

  EXPECT_EQ(daemon.connections_accepted(), kSinks);
  EXPECT_EQ(daemon.handshake_failures(), 0u);
  EXPECT_EQ(collector.errors_total(), 0u);
  EXPECT_EQ(collector.incomplete_epochs(), 0u);
  for (unsigned i = 0; i < kSinks; ++i) {
    const auto* status = collector.source_status(i + 1);
    ASSERT_NE(status, nullptr) << "sink " << i;
    EXPECT_EQ(status->epochs_completed, 2u) << "sink " << i;
    EXPECT_TRUE(status->ended) << "sink " << i;
    EXPECT_EQ(status->frames_missed, 0u) << "sink " << i;
  }

  // The merged cross-process stream is byte-identical to one monolithic
  // sink fed the same packets (built after the fork window closed).
  const auto mono = three_query_builder().build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  mono->at_sink(std::span<const Packet>(packets), kHops);
  const auto mono_bytes = canonical_bytes(mono_records.records);
  ASSERT_FALSE(mono_bytes.empty());
  EXPECT_EQ(canonical_bytes(central.records), mono_bytes);
}

TEST(DaemonForkedSinks, ByteIdenticalToMonolithicOverUnixSocket) {
  run_forked_byte_identity(/*tcp=*/false);
}

TEST(DaemonForkedSinks, ByteIdenticalToMonolithicOverTcpSocket) {
  run_forked_byte_identity(/*tcp=*/true);
}

TEST(DaemonForkedSinks, SigkilledSinkMidEpochReportedIncomplete) {
  const std::vector<Packet> packets = make_encoded_traffic();

  FanInCollector collector;
  RecordingObserver central;
  collector.add_observer(&central);
  CollectorDaemonConfig dc;
  dc.unix_path = test_socket_path("sigkill");
  CollectorDaemon daemon(collector, dc);

  int ready_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);
  ASSERT_EQ(::fcntl(ready_pipe[0], F_SETFL, O_NONBLOCK), 0);

  constexpr unsigned kVictim = 0;
  std::vector<pid_t> pids;
  for (unsigned i = 0; i < kSinks; ++i) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      ::close(ready_pipe[0]);
      SocketSenderConfig sc;
      sc.unix_path = dc.unix_path;
      sc.source = i + 1;
      sc.buffer_hint_bytes = 1 << 18;
      ::_exit(run_child_sink(packets, i, sc, /*victim=*/(i == kVictim),
                             ready_pipe[1]));
    }
    pids.push_back(pid);
  }
  ::close(ready_pipe[1]);

  // Drive the daemon until the victim reports "mid-epoch bytes shipped,
  // close withheld", then kill -9 it. The kernel delivers the buffered
  // bytes first and the EOF after — exactly what a crashed sink looks
  // like on the wire.
  bool victim_killed = false;
  const auto deadline = steady_clock::now() + seconds(60);
  while (daemon.sources_ended() < kSinks &&
         steady_clock::now() < deadline) {
    daemon.poll_once(10);
    if (!victim_killed) {
      char byte = 0;
      if (::read(ready_pipe[0], &byte, 1) == 1) {
        ::kill(pids[kVictim], SIGKILL);
        victim_killed = true;
      }
    }
  }
  ::close(ready_pipe[0]);
  const bool all_ended = daemon.sources_ended() == kSinks;
  for (unsigned i = 0; i < kSinks; ++i) {
    if (!all_ended) ::kill(pids[i], SIGKILL);
    const ReapResult r = reap(pids[i]);
    if (i == kVictim) {
      EXPECT_TRUE(r.signaled);
      EXPECT_EQ(r.signal, SIGKILL);
    } else {
      EXPECT_TRUE(r.exited);
      EXPECT_EQ(r.exit_code, 0);
    }
  }
  ASSERT_TRUE(victim_killed) << "victim never signaled readiness";
  ASSERT_TRUE(all_ended) << "daemon never saw all sinks end";

  // The victim: first epoch complete, the one it died inside incomplete.
  const auto* victim = collector.source_status(kVictim + 1);
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->epochs_completed, 1u);
  EXPECT_EQ(victim->epochs_incomplete, 1u);
  EXPECT_TRUE(victim->ended);
  EXPECT_GT(victim->payload_frames, 0u);  // its mid-epoch payloads arrived

  // Survivors: both epochs complete, nothing missed, records delivered.
  for (unsigned i = 0; i < kSinks; ++i) {
    if (i == kVictim) continue;
    const auto* status = collector.source_status(i + 1);
    ASSERT_NE(status, nullptr) << "sink " << i;
    EXPECT_EQ(status->epochs_completed, 2u) << "sink " << i;
    EXPECT_EQ(status->epochs_incomplete, 0u) << "sink " << i;
    EXPECT_EQ(status->frames_missed, 0u) << "sink " << i;
    EXPECT_TRUE(status->ended) << "sink " << i;
  }
  EXPECT_EQ(collector.incomplete_epochs(), 1u);
  EXPECT_GT(central.records.size(), 0u);
}

// --- sender reconnect --------------------------------------------------------

void pump_until(CollectorDaemon& daemon,
                const std::function<bool()>& done, milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (!done() && steady_clock::now() < deadline) {
    daemon.poll_once(1);
  }
}

bool write_retrying(SocketSenderStream& stream,
                    std::span<const std::uint8_t> bytes,
                    CollectorDaemon* daemon, milliseconds timeout) {
  const auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (stream.try_write(bytes)) return true;
    if (daemon != nullptr) daemon->poll_once(1);
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

TEST(SenderReconnect, ResumesAtEpochBoundaryWithExactAccounting) {
  const std::string path = test_socket_path("reconnect");
  constexpr std::uint32_t kSource = 7;

  FanInCollector collector;
  CollectorDaemonConfig dc;
  dc.unix_path = path;
  // Reconnect topology: a closed connection is a disconnect, not the end
  // of the source.
  dc.end_stream_on_disconnect = false;
  auto daemon = std::make_unique<CollectorDaemon>(collector, dc);

  SocketSenderConfig sc;
  sc.unix_path = path;
  sc.source = kSource;
  sc.backoff_initial = milliseconds(1);
  sc.backoff_max = milliseconds(10);
  SocketSenderStream sender(sc);
  FrameWriter writer(kSource);
  const std::vector<std::uint8_t> payload(64, 0x5A);

  // Epoch 1 completes normally.
  ASSERT_TRUE(write_retrying(sender, writer.make_open(), daemon.get(),
                             seconds(10)));
  ASSERT_TRUE(sender.try_write(writer.make_payload(payload)));
  ASSERT_TRUE(sender.try_write(writer.make_close()));
  pump_until(
      *daemon,
      [&] {
        const auto* s = collector.source_status(kSource);
        return s != nullptr && s->epochs_completed == 1;
      },
      seconds(10));
  ASSERT_NE(collector.source_status(kSource), nullptr);
  ASSERT_EQ(collector.source_status(kSource)->epochs_completed, 1u);

  // Epoch 2 gets its open and one payload onto the wire...
  ASSERT_TRUE(sender.try_write(writer.make_open()));
  ASSERT_TRUE(sender.try_write(writer.make_payload(payload)));
  pump_until(
      *daemon,
      [&] { return collector.source_status(kSource)->epoch_open; },
      seconds(10));
  // ...then the daemon dies mid-epoch. Its teardown reports the torn
  // epoch through disconnect_stream: incomplete, reassembler reset.
  daemon.reset();
  EXPECT_EQ(collector.source_status(kSource)->epochs_incomplete, 1u);
  EXPECT_EQ(collector.source_status(kSource)->disconnects, 1u);
  EXPECT_FALSE(collector.source_status(kSource)->ended);

  // The sender discovers the loss on its next writes. The rest of epoch 2
  // is shed — resuming it mid-epoch on a new connection would splice two
  // half-epochs — and every shed frame is counted.
  std::uint64_t shed = 0;
  for (int i = 0; i < 3; ++i) {
    // First attempt may surface the EPIPE (refused, not shed); once the
    // sender knows, mid-epoch chunks are accepted-and-shed.
    if (sender.try_write(writer.make_payload(payload))) continue;
    ASSERT_TRUE(write_retrying(sender, writer.make_payload(payload), nullptr,
                               seconds(5)));
  }
  ASSERT_TRUE(write_retrying(sender, writer.make_close(), nullptr,
                             seconds(5)));
  shed = sender.frames_resync_discarded();
  EXPECT_GE(shed, 3u);  // at least the 3 retried payloads + the close land
                        // in the resync window (the EPIPE probe may add 1)

  // A new daemon comes up on the same endpoint; the same collector keeps
  // the ledger. The next epoch-open ends the resync window: the sender
  // reconnects and the stream resumes cleanly at the boundary.
  daemon = std::make_unique<CollectorDaemon>(collector, dc);
  ASSERT_TRUE(write_retrying(sender, writer.make_open(), daemon.get(),
                             seconds(10)));
  ASSERT_TRUE(write_retrying(sender, writer.make_payload(payload),
                             daemon.get(), seconds(10)));
  ASSERT_TRUE(write_retrying(sender, writer.make_close(), daemon.get(),
                             seconds(10)));
  sender.close_write();
  pump_until(
      *daemon,
      [&] { return collector.source_status(kSource)->ended; },
      seconds(10));

  const auto* status = collector.source_status(kSource);
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->epochs_completed, 2u);   // epochs 1 and 3
  EXPECT_EQ(status->epochs_incomplete, 1u);  // the torn epoch 2
  EXPECT_EQ(status->disconnects, 1u);
  EXPECT_TRUE(status->ended);
  // No corruption anywhere: the torn epoch is typed accounting, not a
  // frame error, and the resumed stream raised no gap/truncation events.
  EXPECT_EQ(collector.errors_total(), 0u);
  EXPECT_EQ(sender.reconnects(), 1u);
  EXPECT_EQ(sender.frames_resync_discarded(), shed);  // open/close of epoch
                                                      // 3 shed nothing
}

TEST(CollectorDaemon, RejectsSecondConnectionForLiveSource) {
  const std::string path = test_socket_path("duplicate");
  FanInCollector collector;
  CollectorDaemonConfig dc;
  dc.unix_path = path;
  CollectorDaemon daemon(collector, dc);

  SocketSenderConfig sc;
  sc.unix_path = path;
  sc.source = 5;
  SocketSenderStream first(sc);
  FrameWriter writer_a(5);
  ASSERT_TRUE(write_retrying(first, writer_a.make_open(), &daemon,
                             seconds(10)));
  pump_until(
      daemon, [&] { return collector.source_status(5) != nullptr; },
      seconds(10));

  // A second connection claiming the same live source is rejected at the
  // handshake — two frame streams for one source would interleave.
  SocketSenderStream second(sc);
  FrameWriter writer_b(5);
  (void)write_retrying(second, writer_b.make_open(), &daemon, seconds(2));
  pump_until(
      daemon, [&] { return daemon.handshake_failures() >= 1; }, seconds(10));
  EXPECT_GE(daemon.handshake_failures(), 1u);
  // The original connection is unaffected.
  ASSERT_TRUE(write_retrying(first, writer_a.make_close(), &daemon,
                             seconds(10)));
  first.close_write();
  pump_until(
      daemon, [&] { return collector.source_status(5)->ended; }, seconds(10));
  EXPECT_TRUE(collector.source_status(5)->ended);
  EXPECT_EQ(collector.source_status(5)->epochs_completed, 1u);
}

// Nagle's algorithm would hold a small epoch-close frame behind the payload
// before it until the peer's delayed ACK (~40 ms on Linux). The send hook
// reads TCP_NODELAY off the very fd the sender writes to, so no accessor
// is needed.
int g_nodelay_sends = 0;
int g_nagle_sends = 0;

ssize_t nodelay_probing_send(int fd, const void* buf, std::size_t len,
                             int flags) {
  int value = 0;
  socklen_t size = sizeof(value);
  ++g_nodelay_sends;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &size) != 0 ||
      value == 0) {
    ++g_nagle_sends;
  }
  return ::send(fd, buf, len, flags);
}

TEST(SocketSender, TcpConnectionsDisableNagle) {
  FanInCollector collector;
  CollectorDaemonConfig dc;
  dc.tcp = true;  // ephemeral port
  CollectorDaemon daemon(collector, dc);

  g_nodelay_sends = 0;
  g_nagle_sends = 0;
  ScopedIoHooks hooks({&nodelay_probing_send, io_hooks().recv});
  SocketSenderConfig sc;
  sc.tcp_port = daemon.tcp_port();
  sc.source = 9;
  SocketSenderStream sender(sc);
  FrameWriter writer(9);
  ASSERT_TRUE(write_retrying(sender, writer.make_open(), &daemon,
                             seconds(10)));
  ASSERT_TRUE(write_retrying(sender, writer.make_close(), &daemon,
                             seconds(10)));
  sender.close_write();
  pump_until(
      daemon,
      [&] {
        const auto* s = collector.source_status(9);
        return s != nullptr && s->ended;
      },
      seconds(10));
  EXPECT_GE(g_nodelay_sends, 2);
  EXPECT_EQ(g_nagle_sends, 0);
}

// --- FanInPipeline daemon stream kinds ---------------------------------------

TEST(DaemonPipeline, ByteIdenticalToMonolithicOverDaemonTransport) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto mono = builder.build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  mono->at_sink(std::span<const Packet>(packets), kHops);
  const std::vector<std::uint8_t> mono_bytes =
      canonical_bytes(mono_records.records);
  ASSERT_FALSE(mono_bytes.empty());

  for (const StreamKind stream :
       {StreamKind::kDaemonUnix, StreamKind::kDaemonTcp}) {
    FanInConfig cfg;
    cfg.num_sinks = kSinks;
    cfg.shards_per_sink = 2;
    cfg.batch_size = 64;
    cfg.stream = stream;
    cfg.max_frame_records = 128;  // several payload frames per epoch
    FanInPipeline pipeline(builder, cfg);
    RecordingObserver central;
    pipeline.collector().add_observer(&central);

    // Three epochs plus the shutdown flush, like the in-process matrix.
    const std::size_t third = packets.size() / 3;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      pipeline.deliver(packets[i], kHops);
      if (i + 1 == third || i + 1 == 2 * third) pipeline.ship_epoch();
    }
    pipeline.shutdown();

    const std::string label =
        stream == StreamKind::kDaemonUnix ? "daemon-unix" : "daemon-tcp";
    const TransportCounters t = pipeline.transport_counters();
    EXPECT_EQ(t.frames_dropped, 0u) << label;
    EXPECT_EQ(t.sender_reconnects, 0u) << label;
    EXPECT_EQ(t.frames_resync_discarded, 0u) << label;
    EXPECT_EQ(pipeline.collector().errors_total(), 0u) << label;
    EXPECT_EQ(pipeline.collector().incomplete_epochs(), 0u) << label;
    ASSERT_NE(pipeline.daemon(), nullptr) << label;
    EXPECT_EQ(pipeline.daemon()->sources_ended(), kSinks) << label;
    for (unsigned s = 0; s < kSinks; ++s) {
      const auto* status =
          pipeline.collector().source_status(pipeline.source_id(s));
      ASSERT_NE(status, nullptr) << label;
      EXPECT_EQ(status->epochs_completed, 3u) << label << " sink " << s;
      EXPECT_TRUE(status->ended) << label;
    }
    EXPECT_EQ(canonical_bytes(central.records), mono_bytes) << label;
  }
}

TEST(DaemonPipeline, KilledSourceMidEpochOverTheWire) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  FanInConfig cfg;
  cfg.num_sinks = 2;
  cfg.shards_per_sink = 1;
  cfg.batch_size = 32;
  cfg.stream = StreamKind::kDaemonUnix;
  FanInPipeline pipeline(builder, cfg);

  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pipeline.deliver(packets[i], kHops);
  pipeline.ship_epoch();
  pipeline.kill_source_mid_epoch(0);
  for (std::size_t i = half; i < packets.size(); ++i) {
    pipeline.deliver(packets[i], kHops);
  }
  pipeline.ship_epoch();
  pipeline.shutdown();

  const auto* dead = pipeline.collector().source_status(pipeline.source_id(0));
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->epochs_completed, 1u);
  EXPECT_EQ(dead->epochs_incomplete, 1u);
  EXPECT_TRUE(dead->ended);
  const auto* alive =
      pipeline.collector().source_status(pipeline.source_id(1));
  ASSERT_NE(alive, nullptr);
  EXPECT_EQ(alive->epochs_incomplete, 0u);
  EXPECT_EQ(alive->epochs_completed, 3u);
  EXPECT_TRUE(alive->ended);
}

TEST(DaemonPipeline, PriorityClassesSurviveTheWire) {
  const std::vector<Packet> packets = make_encoded_traffic();

  // hpcc outranks path and latency (see fanin_test's priority matrix);
  // here the check is that the class structure crosses the socket: a
  // lossless daemon run merges to the exact monolithic per-query record
  // set, with the per-epoch class regrouping canonicalized away.
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
  auto cc_q = make_perpacket_query(
      "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0 / 16.0,
      cc_tuning);
  cc_q.priority = 2;
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xFA41)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    15.0 / 16.0, latency_tuning))
      .add_query(cc_q);

  const auto mono = builder.build_or_throw();
  RecordingObserver mono_records;
  mono->add_observer(&mono_records);
  mono->at_sink(std::span<const Packet>(packets), kHops);

  const auto per_query_bytes = [](std::vector<RecordingObserver::Rec> recs) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const auto& a, const auto& b) {
                       if (a.ctx.packet_id != b.ctx.packet_id) {
                         return a.ctx.packet_id < b.ctx.packet_id;
                       }
                       return a.query < b.query;
                     });
    ReportEncoder enc;
    for (const auto& rec : recs) {
      if (rec.path_event) {
        enc.add_path(rec.ctx, rec.query, rec.path);
      } else {
        enc.add(rec.ctx, rec.query, rec.obs);
      }
    }
    return enc.finish();
  };

  FanInConfig cfg;
  cfg.num_sinks = 2;
  cfg.shards_per_sink = 1;
  cfg.batch_size = 64;
  cfg.stream = StreamKind::kDaemonUnix;
  cfg.max_frame_records = 64;
  FanInPipeline pipeline(builder, cfg);
  RecordingObserver central;
  pipeline.collector().add_observer(&central);
  for (const Packet& packet : packets) pipeline.deliver(packet, kHops);
  pipeline.ship_epoch();
  pipeline.shutdown();

  EXPECT_EQ(pipeline.transport_counters().frames_dropped, 0u);
  EXPECT_EQ(pipeline.collector().errors_total(), 0u);
  EXPECT_EQ(per_query_bytes(central.records),
            per_query_bytes(mono_records.records));
}

}  // namespace
}  // namespace pint
