// Order statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 for none.
inline double median(const std::vector<double>& v) {
  return coopnet::util::summarize(v).median;
}

struct Tail {
  double value = 0.0;
  int percentile = 0;       // the rank reported, e.g. 97 for p97
  std::size_t samples = 0;  // how many samples it was taken from
  std::size_t beyond = 0;   // samples ranked above it
};

/// The highest integer percentile p in [50, 99] that still has at least
/// `min_beyond` samples ranked above it, by the nearest-rank rule (the
/// p-th percentile of n sorted samples is the ceil(p * n / 100)-th
/// smallest). Empty when even the median has fewer than `min_beyond`
/// samples above it.
inline std::optional<Tail> tail_percentile(std::vector<double> v,
                                           std::size_t min_beyond = 10) {
  const std::size_t n = v.size();
  std::sort(v.begin(), v.end());
  for (int p = 99; p >= 50; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (rank == 0 || n - rank < min_beyond) continue;
    return Tail{v[rank - 1], p, n, n - rank};
  }
  return std::nullopt;
}

}  // namespace perfbench
