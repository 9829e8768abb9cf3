// Shared helpers for the table/figure reproduction benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/simulation.h"
#include "eos/stiffened_gas.h"
#include "perf/microbench.h"
#include "simd/dispatch.h"
#include "workload/cloud.h"

namespace mpcf::bench {

/// Fills a grid with the production-style two-phase cloud state.
inline void init_cloud_state(Grid& grid, int bubbles = 8, std::uint64_t seed = 42) {
  CloudParams cp;
  cp.count = bubbles;
  cp.seed = seed;
  const double extent = grid.h() * grid.cells_x();
  cp.r_min = 0.03 * extent;
  cp.r_max = 0.12 * extent;
  cp.lognormal_mu = std::log(0.06 * extent);
  cp.box_lo = 0.15;
  cp.box_hi = 0.85;
  const auto cloud = generate_cloud(cp, extent);
  set_cloud_ic(grid, cloud, TwoPhaseIC{});
}

/// Best (minimum) wall-clock of `repeats` runs of a callable.
template <typename F>
double time_best_of(F&& f, int repeats = 3) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    Timer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

inline void print_rule() {
  std::puts("--------------------------------------------------------------------------");
}

/// The host header of a committed BENCH_*.json, as one `"host": {...},`
/// line: processors, SIMD width, measured single-core FMA peak and triad
/// bandwidth.
inline void write_host_json(std::FILE* out) {
  std::fprintf(out,
               "  \"host\": {\"nproc\": %u, \"simd_width\": \"%s\", "
               "\"fma_peak_gflops_per_core\": %.1f, \"mem_bw_gbs\": %.1f},\n",
               std::max(1u, std::thread::hardware_concurrency()),
               simd::width_name(simd::dispatch_width()), perf::host_machine().peak_gflops,
               perf::host_machine().mem_bw_gbs);
}

}  // namespace mpcf::bench
