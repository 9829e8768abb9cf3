// Table 8 analogue: performance upper bound of the RHS stages from the
// instruction issue rate. The paper counts QPX instructions in the compiled
// stages and derives FLOP/instruction densities of 1.10-1.56 (x4), bounding
// the RHS at 76% of peak — peak requires pure FMA streams (8 flops per
// 4-wide instruction) and these kernels cannot fuse everything. We compute
// the same model from our kernel expression trees.
#include <cstdio>

#include "perf/issue_rate.h"

int main() {
  using namespace mpcf::perf;
  const auto model = issue_rate_model(32);

  std::puts("=== Table 8 analogue: issue-rate performance bounds ===");
  std::printf("%-8s %8s %16s %8s\n", "stage", "weight", "FLOP/instr", "peak");
  for (const auto& s : model)
    std::printf("%-8s %7.1f%% %11.2f x 4 %7.0f%%\n", s.name.c_str(), 100 * s.weight,
                s.flops_per_instr, 100 * s.peak_bound);

  std::puts("\npaper Table 8:  CONV 1% 1.10x4 55% | WENO 83% 1.56x4 78% |");
  std::puts("               HLLE 13% 1.30x4 65% | SUM 2% 1.22x4 61% | ALL 1.51x4 76%");
  std::puts("\nShape check: WENO dominates the work and sets the bound of the whole");
  std::puts("RHS kernel; no stage can exceed ~80% of peak.");
  return 0;
}
