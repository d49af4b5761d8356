// Workload definitions and deterministic input generation for the
// collection-path benchmark. Everything here runs in set-up: the timed
// loops only read what these functions produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "packet/packet.h"
#include "pint/framework.h"

namespace perfbench {

enum class WorkloadKind { kReplayInproc, kChurnBounded };

// The knobs that distinguish the three workloads (see README.md for why
// each one exists).
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kReplayInproc;
  unsigned shards = 1;
  std::size_t packets = 0;        // packets offered per rep
  std::size_t epoch_packets = 0;  // packets per epoch
  unsigned slots = 0;             // concurrently active flows
  double slot_skew = 0;           // Zipf skew of slot rates (0 = uniform)
  std::size_t memory_ceiling_bytes = 0;  // 0 = unbounded Recording Module
};

// Throws std::invalid_argument for an unknown name. `smoke` shrinks the
// inputs for the self-test.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

// One rep's inputs. Packet ids run 1..packets.size() in offer order, so
// `id - 1` indexes every per-packet table.
struct Traffic {
  unsigned epochs = 0;
  std::vector<pint::Packet> packets;         // id + tuple, no digests yet
  std::vector<std::uint32_t> flow_of;        // per packet
  std::vector<std::uint32_t> epoch_of;       // per packet
  std::vector<std::uint32_t> epoch_begin;    // epochs+1 packet offsets
  std::vector<std::vector<pint::SwitchId>> flow_paths;
  std::vector<std::uint64_t> flow_keys;      // path query's flow key
  std::size_t flows_offered = 0;             // flows with >= 1 packet
  std::uint64_t total_hops = 0;
  pint::PintFramework::Builder builder;

  unsigned hops_of(std::size_t p) const {
    return static_cast<unsigned>(flow_paths[flow_of[p]].size());
  }
};

Traffic make_traffic(const WorkloadSpec& spec, std::uint64_t seed);

// Runs one packet through its flow's switches (PINT encode at every hop).
// The per-hop switch state is a deterministic function of (switch, packet,
// hop), so the encode is reproducible across reps.
void encode_at_switches(pint::PintFramework& network, pint::Packet& packet,
                        const std::vector<pint::SwitchId>& path);

}  // namespace perfbench
