#include "pint/query_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pint {

namespace {
constexpr double kProbEpsilon = 1e-9;
}

QueryEngine::QueryEngine(std::vector<Query> queries,
                         unsigned global_bit_budget, std::uint64_t seed)
    : queries_(std::move(queries)),
      global_budget_(global_bit_budget),
      selection_hash_(GlobalHash(seed).derive(0x5E7EC7)) {
  if (queries_.empty()) throw std::invalid_argument("no queries");
  for (const Query& q : queries_) {
    if (q.bit_budget == 0 || q.bit_budget > global_budget_) {
      throw std::invalid_argument("query '" + q.name +
                                  "' bit budget outside global budget");
    }
    if (q.frequency <= 0.0 || q.frequency > 1.0) {
      throw std::invalid_argument("query '" + q.name +
                                  "' frequency outside (0,1]");
    }
  }
  compile();
}

void QueryEngine::compile() {
  std::vector<double> residual(queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i)
    residual[i] = queries_[i].frequency;

  plan_.sets.clear();
  // Each iteration builds one query set and peels off probability mass.
  // Greedy: consider queries by descending residual, add while bits fit.
  while (true) {
    std::vector<std::size_t> order(queries_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return residual[a] > residual[b];
    });
    QuerySet set;
    unsigned bits = 0;
    for (std::size_t qi : order) {
      if (residual[qi] <= kProbEpsilon) continue;
      if (bits + queries_[qi].bit_budget > global_budget_) continue;
      set.query_indices.push_back(qi);
      bits += queries_[qi].bit_budget;
    }
    if (set.query_indices.empty()) break;  // all residuals satisfied
    // Largest probability usable by this set: the smallest member residual —
    // but if some *excluded* query still has residual, cap so that the next
    // iteration can serve it (its mass must come from sets without us).
    double p = 1.0;
    for (std::size_t qi : set.query_indices) p = std::min(p, residual[qi]);
    // Total mass already assigned plus what remains to assign cannot
    // exceed 1; cap by remaining headroom.
    double assigned = 0.0;
    for (const QuerySet& s : plan_.sets) assigned += s.probability;
    p = std::min(p, 1.0 - assigned);
    if (p <= kProbEpsilon) {
      throw std::invalid_argument(
          "query mix infeasible within the global bit budget");
    }
    set.probability = p;
    for (std::size_t qi : set.query_indices) residual[qi] -= p;
    plan_.sets.push_back(std::move(set));
    const double max_residual =
        *std::max_element(residual.begin(), residual.end());
    if (max_residual <= kProbEpsilon) break;
  }

  // Coverage diagnostics + feasibility check.
  plan_.query_coverage.assign(queries_.size(), 0.0);
  for (const QuerySet& s : plan_.sets) {
    for (std::size_t qi : s.query_indices)
      plan_.query_coverage[qi] += s.probability;
  }
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    if (plan_.query_coverage[i] + 1e-6 < queries_[i].frequency) {
      throw std::invalid_argument("query '" + queries_[i].name +
                                  "' cannot reach its frequency within the "
                                  "global bit budget");
    }
  }

  cumulative_.clear();
  double acc = 0.0;
  for (const QuerySet& s : plan_.sets) {
    acc += s.probability;
    cumulative_.push_back(acc);
  }
  // Note: acc may be < 1; packets hashing above acc carry no digest (spare
  // capacity). That is intentional: frequencies < 1 leave idle packets.
}

const QuerySet& QueryEngine::set_for_packet(PacketId packet) const {
  static const QuerySet kEmpty{};
  const std::size_t i = set_index_for_packet(packet);
  return i < plan_.sets.size() ? plan_.sets[i] : kEmpty;
}

std::size_t QueryEngine::set_index_for_packet(PacketId packet) const {
  const double h = selection_hash_.unit(packet);
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (h < cumulative_[i]) return i;
  }
  return plan_.sets.size();
}

bool QueryEngine::query_runs(std::size_t query_index, PacketId packet) const {
  const QuerySet& s = set_for_packet(packet);
  return std::find(s.query_indices.begin(), s.query_indices.end(),
                   query_index) != s.query_indices.end();
}

}  // namespace pint
