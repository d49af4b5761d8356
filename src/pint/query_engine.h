/// \file
/// PINT Query Engine (paper Section 3.4, Fig. 3).
///
/// The engine compiles concurrent queries and a global per-packet bit budget
/// into an *execution plan*: a probability distribution over query sets, each
/// set's cumulative bit budget within the global budget, and each query
/// appearing with total probability equal to its requested frequency. All
/// switches select the same set for a packet by hashing the packet id with
/// the global query-selection hash, so no coordination bits are added.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "hash/global_hash.h"
#include "pint/query.h"

namespace pint {

struct QuerySet {
  std::vector<std::size_t> query_indices;  // into the engine's query list
  double probability = 0.0;
};

struct ExecutionPlan {
  std::vector<QuerySet> sets;

  /// Total probability each query runs with (diagnostics).
  std::vector<double> query_coverage;
};

class QueryEngine {
 public:
  /// Throws std::invalid_argument if any single query exceeds the global
  /// budget or the mix is infeasible (sum of frequency-weighted bits exceeds
  /// the budget even with perfect packing is allowed to fail at compile()).
  QueryEngine(std::vector<Query> queries, unsigned global_bit_budget,
              std::uint64_t seed = 0x9E37C0DE);

  /// Greedy fractional packing: repeatedly form the set of queries with
  /// positive residual frequency that fits the budget (preferring higher
  /// residuals), assign it the largest probability that keeps every member
  /// within its residual, and subtract. Reproduces the Section 6.4 plan
  /// exactly for the paper's three-query workload.
  const ExecutionPlan& plan() const { return plan_; }

  /// The query set a given packet runs (same answer on every switch).
  const QuerySet& set_for_packet(PacketId packet) const;

  /// Index into plan().sets of set_for_packet(packet), or plan().sets.size()
  /// when no set selects the packet (it then runs the empty set).
  std::size_t set_index_for_packet(PacketId packet) const;

  /// True iff query q runs on this packet.
  bool query_runs(std::size_t query_index, PacketId packet) const;

  const std::vector<Query>& queries() const { return queries_; }
  unsigned global_bit_budget() const { return global_budget_; }
  const GlobalHash& selection_hash() const { return selection_hash_; }

 private:
  void compile();

  std::vector<Query> queries_;
  unsigned global_budget_;
  GlobalHash selection_hash_;
  ExecutionPlan plan_;
  std::vector<double> cumulative_;  // prefix sums of set probabilities
};

}  // namespace pint
