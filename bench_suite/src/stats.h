// Sample statistics shared by every workload and probe: median, the highest
// percentile that still has at least ten samples beyond it (the reporting
// rule for a timing), quartiles, min and max, each with the sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace mpcf::bench_suite {

/// Linear-interpolated quantile q in [0, 1] of a sorted sample.
inline double quantile_sorted(const std::vector<double>& s, double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

struct SampleStats {
  int n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  /// Highest whole percentile with >= 10 samples above it (0 when n < 20;
  /// then only the median is a reportable timing).
  int tail_pct = 0;
  double tail = 0;  ///< value at tail_pct

  [[nodiscard]] static SampleStats of(std::vector<double> v) {
    SampleStats st;
    st.n = static_cast<int>(v.size());
    if (v.empty()) return st;
    std::sort(v.begin(), v.end());
    st.median = quantile_sorted(v, 0.5);
    st.q1 = quantile_sorted(v, 0.25);
    st.q3 = quantile_sorted(v, 0.75);
    st.min = v.front();
    st.max = v.back();
    if (st.n >= 20) {
      st.tail_pct = std::min(99, static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / st.n))));
      st.tail = quantile_sorted(v, st.tail_pct / 100.0);
    }
    return st;
  }
};

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return SampleStats::of(v).median;
}

}  // namespace mpcf::bench_suite
