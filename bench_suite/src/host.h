// Host header attached to every result: what ran (cores, threads, SIMD
// width, compiler, flags, source identity), the cache sizes that decide
// which workloads fit in cache, and the measured compute and bandwidth
// ceilings the per-layer roofline fractions are taken against.
#pragma once

#include <string>

#include "common.h"

namespace mpcf::bench_suite {

struct Host {
  int nproc = 0;
  int omp_threads = 0;
  std::string width;
  std::string compiler;
  std::string flags;
  std::string git_sha;
  std::string source_id;
  long llc_bytes = 0;
  long l2_bytes_per_core = 0;
  double fma_1c_gflops = 0;    ///< perf::measure_peak_gflops on one core
  double fma_all_gflops = 0;   ///< the same probe on every thread at once
  double triad_gbs = 0;        ///< perf::measure_bandwidth_gbs (192 MiB arrays)
  double fma_1c_after = 0;     ///< one-core peak re-measured after the workload
  [[nodiscard]] bool drift() const;  ///< the two one-core readings differ > 10 %
  [[nodiscard]] std::string json() const;
};

/// Measures the header except bandwidth.
[[nodiscard]] Host measure_host(const Options& opt);

/// Adds the triad bandwidth. Run after the workload, so the triad's arrays
/// stay out of the workload's peak RSS.
void measure_bandwidth(Host& h);

/// One-core FMA peak, GFLOP/s.
[[nodiscard]] double measure_fma_1c();

}  // namespace mpcf::bench_suite
