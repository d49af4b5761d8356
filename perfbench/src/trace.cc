#include "trace.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double weighted_quantile(std::vector<WeightedSample> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end(),
            [](const auto& a, const auto& b) { return a.value < b.value; });
  std::uint64_t total = 0;
  for (const auto& s : samples) total += s.weight;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& s : samples) {
    seen += s.weight;
    if (seen >= target) return s.value;
  }
  return samples.back().value;
}

}  // namespace perfbench
