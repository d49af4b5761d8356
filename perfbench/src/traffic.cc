#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "hash/global_hash.h"
#include "pint/metric.h"
#include "topology/fat_tree.h"
#include "topology/isp.h"
#include "workload/flow_size_dist.h"

namespace perfbench {

using namespace pint;

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec s;
  s.name = name;
  const std::size_t shrink = smoke ? 8 : 1;
  if (name == "replay_inproc") {
    s.kind = WorkloadKind::kReplayInproc;
    s.shards = 3;
    s.packets = 240'000 / shrink;
    s.epoch_packets = 8192;
    s.slots = 3000 / static_cast<unsigned>(shrink);
  } else if (name == "churn_bounded") {
    s.kind = WorkloadKind::kChurnBounded;
    // One shard: two busy threads leave the host's other vCPUs free, and
    // at two shards the run-to-run spread reached the bound.
    s.shards = 1;
    s.packets = 240'000 / shrink;
    s.epoch_packets = 8192;
    s.slots = 1000 / static_cast<unsigned>(shrink);
    s.slot_skew = 1.0;
    s.memory_ceiling_bytes = (32u << 20) / shrink;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (replay_inproc, churn_bounded)");
  }
  return s;
}

namespace {

// The paper's Section 6.4 plan on 16 bits: path tracing on every packet,
// hop latency on 15/16 and HPCC utilization on 1/16 of them.
PintFramework::Builder three_query_builder(std::vector<std::uint64_t> universe,
                                           unsigned typical_hops) {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = typical_hops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = 1e6;
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

SwitchId switch_of(NodeId node) { return static_cast<SwitchId>(node + 1); }

// Picks the endpoints and switch path of a new flow, from `rng` or from
// `u`, a point of a low-discrepancy sequence in [0, 1).
struct PathSource {
  virtual ~PathSource() = default;
  virtual std::vector<SwitchId> path(Rng& rng, double u,
                                     std::uint64_t flow_key,
                                     std::uint32_t* src,
                                     std::uint32_t* dst) = 0;
};

// Inter-pod host pairs of a k=8 fat-tree: every path is 5 switches.
class FatTreePaths final : public PathSource {
 public:
  FatTreePaths() : tree_(make_fat_tree(8)), hash_(0xFA7) {}
  std::vector<SwitchId> path(Rng& rng, double, std::uint64_t flow_key,
                             std::uint32_t* src, std::uint32_t* dst) override {
    const auto& hosts = tree_.nodes.hosts;
    for (;;) {
      const auto a = static_cast<std::uint32_t>(rng.uniform_int(hosts.size()));
      const auto b = static_cast<std::uint32_t>(rng.uniform_int(hosts.size()));
      const auto nodes =
          tree_.graph.ecmp_path(hosts[a], hosts[b], flow_key, hash_);
      if (!nodes || nodes->size() != 7) continue;  // host + 5 switches + host
      *src = a;
      *dst = b;
      std::vector<SwitchId> out;
      for (std::size_t i = 1; i + 1 < nodes->size(); ++i) {
        out.push_back(switch_of((*nodes)[i]));
      }
      return out;
    }
  }
  std::vector<std::uint64_t> universe() const {
    std::vector<std::uint64_t> ids;
    for (const auto* tier :
         {&tree_.nodes.cores, &tree_.nodes.aggs, &tree_.nodes.edges}) {
      for (NodeId n : *tier) ids.push_back(switch_of(n));
    }
    return ids;
  }

 private:
  FatTree tree_;
  GlobalHash hash_;
};

// Switch pairs of the US Carrier stand-in at least kMinHops switches apart:
// ISP-length paths of tens of hops. The pairs are listed by path length,
// and `u` indexes the list, so a low-discrepancy walk of `u` gives every
// seed the same mix of path lengths.
class IspPaths final : public PathSource {
 public:
  static constexpr std::size_t kMinHops = 12;
  IspPaths() : isp_(make_us_carrier()), hash_(0x15B) {
    const auto n = static_cast<NodeId>(isp_.graph.num_nodes());
    std::vector<std::vector<std::pair<NodeId, NodeId>>> by_length;
    for (NodeId a = 0; a < n; ++a) {
      const std::vector<int> dist = isp_.graph.distances_from(a);
      for (NodeId b = 0; b < n; ++b) {
        if (dist[b] < 0) continue;
        const auto switches = static_cast<std::size_t>(dist[b]) + 1;
        if (switches < kMinHops) continue;
        if (by_length.size() <= switches) by_length.resize(switches + 1);
        by_length[switches].emplace_back(a, b);
      }
    }
    for (const auto& pairs : by_length) {
      pairs_.insert(pairs_.end(), pairs.begin(), pairs.end());
    }
  }
  std::vector<SwitchId> path(Rng&, double u, std::uint64_t flow_key,
                             std::uint32_t* src, std::uint32_t* dst) override {
    const auto [a, b] = pairs_[std::min(
        pairs_.size() - 1, static_cast<std::size_t>(
                               u * static_cast<double>(pairs_.size())))];
    const auto nodes = isp_.graph.ecmp_path(a, b, flow_key, hash_);
    *src = a;
    *dst = b;
    std::vector<SwitchId> out;
    for (NodeId node : *nodes) out.push_back(switch_of(node));
    return out;
  }
  std::vector<std::uint64_t> universe() const {
    std::vector<std::uint64_t> ids;
    for (NodeId n = 0; n < isp_.graph.num_nodes(); ++n) {
      ids.push_back(switch_of(n));
    }
    return ids;
  }

 private:
  IspTopology isp_;
  GlobalHash hash_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;  // by path length
};

constexpr double kBytesPerPacket = 1000.0;
constexpr unsigned kIspTypicalHops = 20;  // PathTracingConfig::d for 12+ hops
constexpr double kGoldenStep = 0.6180339887498949;  // (sqrt(5) - 1) / 2
constexpr double kSilverStep = 0.4142135623730951;  // sqrt(2) - 1
constexpr double kRoot3Step = 0.7320508075688772;   // sqrt(3) - 1

// Advances a Weyl sequence: u <- frac(u + step).
double weyl_next(double& u, double step) {
  u += step;
  u -= std::floor(u);
  return u;
}

}  // namespace

Traffic make_traffic(const WorkloadSpec& spec, std::uint64_t seed) {
  Traffic t;
  // Each workload draws from its own stream of the seed.
  Rng rng(seed ^
          (0x9E3779B97F4A7C15ULL * (static_cast<unsigned>(spec.kind) + 1)));

  const bool isp = spec.kind == WorkloadKind::kChurnBounded;
  FatTreePaths fat_tree;
  IspPaths isp_paths;
  PathSource& paths = isp ? static_cast<PathSource&>(isp_paths) : fat_tree;
  const FlowSizeDist dist =
      isp ? FlowSizeDist::hadoop() : FlowSizeDist::web_search();
  t.builder = three_query_builder(isp ? isp_paths.universe()
                                      : fat_tree.universe(),
                                  isp ? kIspTypicalHops : 5);
  if (spec.memory_ceiling_bytes > 0) {
    t.builder.memory_ceiling_bytes(spec.memory_ceiling_bytes)
        .default_store_policy(StorePolicyKind::kTinyLfu);
  }
  const FlowDefinition path_def =
      t.builder.build_or_throw()->spec("path")->query.flow_definition;

  // Flows live in `slots` concurrent slots. Each packet comes from one
  // slot, and a slot whose flow has sent all its packets starts a new
  // flow. Flows still running when the rep ends are cut off, as in any
  // measurement window. Sizes, ISP path lengths and slot choices walk
  // Weyl sequences from seeded starts rather than independent draws, so
  // every seed gets the same size and path-length mix and the same
  // per-slot packet shares; only the placement differs. That keeps
  // seed-to-seed spread in the outputs small.
  std::vector<FiveTuple> tuples;
  std::vector<std::uint64_t> remaining;
  std::vector<std::uint32_t> slot_flow(spec.slots);
  std::vector<double> size_u(spec.slots);
  std::vector<double> path_u(spec.slots);
  for (double& u : size_u) u = rng.uniform();
  for (double& u : path_u) u = rng.uniform();
  const auto start_flow = [&](unsigned slot) {
    const auto f = static_cast<std::uint32_t>(tuples.size());
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    FiveTuple tuple;
    tuple.src_port = static_cast<std::uint16_t>(f & 0xFFFF);
    tuple.dst_port = static_cast<std::uint16_t>(80 + (f >> 16));
    // The endpoints depend on the path draw; the ports alone make the
    // tuple unique, so the ECMP key can be fixed before the draw.
    t.flow_paths.push_back(paths.path(rng,
                                      weyl_next(path_u[slot], kRoot3Step),
                                      tuple.key(), &src, &dst));
    tuple.src_ip = 0x0A000000u | src;
    tuple.dst_ip = 0x0B000000u | dst;
    tuples.push_back(tuple);
    t.flow_keys.push_back(flow_key(tuple, path_def));
    const double bytes = static_cast<double>(
        dist.sample_at(weyl_next(size_u[slot], kGoldenStep)));
    remaining.push_back(static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(bytes / kBytesPerPacket))));
    slot_flow[slot] = f;
  };
  for (unsigned s = 0; s < spec.slots; ++s) start_flow(s);

  // Slot rates: uniform, or Zipf(slot_skew) over slot rank.
  std::vector<double> slot_cdf(spec.slots);
  double total = 0;
  for (unsigned s = 0; s < spec.slots; ++s) {
    total += std::pow(static_cast<double>(s + 1), -spec.slot_skew);
    slot_cdf[s] = total;
  }
  double slot_u = rng.uniform();
  t.packets.resize(spec.packets);
  t.flow_of.resize(spec.packets);
  std::vector<std::uint32_t> packets_of_flow;
  for (std::size_t p = 0; p < spec.packets; ++p) {
    const double at = weyl_next(slot_u, kSilverStep) * total;
    const auto slot = static_cast<unsigned>(std::min<std::ptrdiff_t>(
        std::lower_bound(slot_cdf.begin(), slot_cdf.end(), at) -
            slot_cdf.begin(),
        spec.slots - 1));
    const std::uint32_t f = slot_flow[slot];
    t.packets[p].id = p + 1;
    t.packets[p].tuple = tuples[f];
    t.flow_of[p] = f;
    if (packets_of_flow.size() <= f) packets_of_flow.resize(f + 1, 0);
    if (packets_of_flow[f]++ == 0) ++t.flows_offered;
    t.total_hops += t.flow_paths[f].size();
    if (--remaining[f] == 0) start_flow(slot);
  }

  // Epochs: runs of epoch_packets packets in offer order.
  t.epochs = static_cast<unsigned>(
      (spec.packets + spec.epoch_packets - 1) / spec.epoch_packets);
  for (unsigned e = 0; e <= t.epochs; ++e) {
    t.epoch_begin.push_back(static_cast<std::uint32_t>(
        std::min(spec.packets, std::size_t{e} * spec.epoch_packets)));
  }
  t.epoch_of.resize(spec.packets);
  for (std::size_t p = 0; p < spec.packets; ++p) {
    t.epoch_of[p] = static_cast<std::uint32_t>(p / spec.epoch_packets);
  }
  return t;
}

void encode_at_switches(PintFramework& network, Packet& packet,
                        const std::vector<SwitchId>& path) {
  // A packet enters the network without digests (the first hop sizes them).
  packet.digests.clear();
  packet.hops_traversed = 0;
  for (HopIndex i = 1; i <= path.size(); ++i) {
    const SwitchId sid = path[i - 1];
    const std::uint64_t noise = mix64((packet.id << 6) ^ i);
    SwitchView view(sid);
    view.set(metric::kHopLatencyNs,
             1000.0 + 250.0 * static_cast<double>(sid % 7) +
                 static_cast<double>(noise % 512));
    view.set(metric::kLinkUtilization,
             0.05 + 0.01 * static_cast<double>(sid % 50) +
                 0.001 * static_cast<double>((noise >> 9) % 16));
    network.at_switch(packet, i, view);
  }
}

}  // namespace perfbench
