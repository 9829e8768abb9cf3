#include "perf/microbench.h"

#include <algorithm>

#include "common/aligned_buffer.h"
#include "common/chunk_loop.h"
#include "core/profile.h"
#include "simd/dispatch.h"
#include "simd/vec4.h"
#include "simd/vec8.h"

namespace mpcf::perf {

namespace {

/// 8 independent accumulator chains of width-V FMAs: enough ILP to saturate
/// the FMA pipes on any recent core.
template <typename V, int kLanes>
double peak_chains(double seconds_budget) {
  V acc[8];
  for (int i = 0; i < 8; ++i) acc[i] = V(1.0f + 0.1f * i);
  const V a(1.000001f), b(0.999999f);

  double best = 0;
  long iters = 1 << 16;
  Timer total;
  while (total.seconds() < seconds_budget) {
    Timer t;
    for (long k = 0; k < iters; ++k)
      for (int i = 0; i < 8; ++i) acc[i] = simd::fmadd(acc[i], a, b);
    const double sec = t.seconds();
    // 8 chains x kLanes lanes x 2 flops per iteration.
    const double gflops = 8.0 * kLanes * 2.0 * iters / sec / 1e9;
    best = gflops > best ? gflops : best;
    if (sec < 0.01) iters *= 4;
  }
  // Defeat dead-code elimination.
  volatile float sink = simd::hsum(acc[0] + acc[1] + acc[2] + acc[3] + acc[4] +
                                   acc[5] + acc[6] + acc[7]);
  (void)sink;
  return best;
}

}  // namespace

double measure_peak_gflops(double seconds_budget) {
  // Probe at the widest genuinely compiled + executable backend, so "% of
  // peak" stays meaningful when the kernels dispatch to vec8.
  if (simd::width_compiled(simd::Width::kW8) && simd::host_executes(simd::Width::kW8))
    return peak_chains<simd::vec8, 8>(seconds_budget);
  return peak_chains<simd::vec4, 4>(seconds_budget);
}

double measure_bandwidth_gbs(double seconds_budget) {
  const std::size_t n = 1 << 24;  // 3 x 64 MiB working set
  AlignedBuffer<float> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<float>(i & 1023);
    c[i] = 1.0f;
    a[i] = 0.0f;
  }
  const std::size_t chunk = 1 << 16;
  double best = 0;
  Timer total;
  while (total.seconds() < seconds_budget) {
    Timer t;
    const float s = 0.5f;
    for_each_chunk(static_cast<int>(n / chunk), [&](int k, int) {
      const std::size_t i = k * chunk;
      std::transform(b.data() + i, b.data() + i + chunk, c.data() + i, a.data() + i,
                     [s](float x, float y) { return x + s * y; });
    });
    const double sec = t.seconds();
    // 2 reads + 1 write (+1 write-allocate read, not counted: STREAM rules).
    const double gbs = 3.0 * n * sizeof(float) / sec / 1e9;
    best = gbs > best ? gbs : best;
  }
  volatile float sink = a[n / 2];
  (void)sink;
  return best;
}

const MachineModel& host_machine() {
  static const MachineModel model{"host (measured)", measure_peak_gflops(),
                                  measure_bandwidth_gbs()};
  return model;
}

}  // namespace mpcf::perf
