// Table 9 analogue: micro-fusion of the WENO and HLLE stages. The paper's
// baseline stores WENO face reconstructions to memory and runs HLLE as a
// second pass; the fused kernel mixes both instruction streams in registers,
// gaining 1.2X in GFLOP/s and 1.3X in cycles. We time the staged SIMD RHS
// (kSimd) against the micro-fused one (kSimdFused) on identical blocks.
#include <cstdio>

#include "bench_util.h"
#include "grid/lab.h"
#include "perf/microbench.h"

using namespace mpcf;
using namespace mpcf::kernels;

int main() {
  const int bs = 32;
  Grid grid(2, 2, 2, bs, 1e-3);
  mpcf::bench::init_cloud_state(grid);

  BlockLab lab;
  lab.resize(bs);
  RhsWorkspace ws;
  ws.resize(bs);
  lab.load(grid, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));

  const int reps = 6;
  const double flops = rhs_flops(bs) * reps;
  const double t_staged = mpcf::bench::time_best_of([&] {
    for (int i = 0; i < reps; ++i)
      rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
                KernelImpl::kSimd);
  }, 5);
  const double t_fused = mpcf::bench::time_best_of([&] {
    for (int i = 0; i < reps; ++i)
      rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
                KernelImpl::kSimdFused);
  }, 5);

  const double peak = perf::host_machine().peak_gflops;
  // Memory the fused kernel avoids round-tripping: 14 face arrays of
  // (bs+2)*bs^2 floats per direction (both face values of every line cell),
  // written by WENO and re-read by HLLE.
  const double avoided_mb =
      3.0 * 2.0 * 14.0 * (bs + 2.0) * bs * bs * sizeof(Real) / 1e6;

  std::puts("=== Table 9 analogue: micro-fused vs staged WENO+HLLE ===");
  std::printf("%-24s %12s %12s\n", "", "Baseline", "Fused");
  std::printf("%-24s %12.2f %12.2f\n", "Performance [GFLOP/s]", flops / t_staged / 1e9,
              flops / t_fused / 1e9);
  std::printf("%-24s %11.1f%% %11.1f%%\n", "Peak fraction",
              100 * flops / t_staged / 1e9 / peak, 100 * flops / t_fused / 1e9 / peak);
  std::printf("%-24s %12s %11.2fX\n", "GFLOP/s improvement", "-",
              t_staged / t_fused);
  std::printf("%-24s %12s %11.2fX\n", "Time improvement", "-", t_staged / t_fused);
  std::printf("%-24s %12s %11.1f MB\n", "traffic avoided/block", "-", avoided_mb);
  std::puts("\npaper Table 9: 7.9 -> 9.2 GFLOP/s (1.2X), 1.3X in cycles: fusion");
  std::puts("keeps the face states in registers instead of round-tripping the");
  std::puts("cache hierarchy. On the BQC (32 MB L2 shared by 64 threads, ridge");
  std::puts("7.3 F/B) that traffic costs 20-30%; on an x86 host with 2 MB of L2");
  std::puts("per core and a large L3 most of the staged round trip is absorbed —");
  std::puts("the deviation and its cause are recorded in EXPERIMENTS.md.");
  return 0;
}
