#include "perf/issue_rate.h"

#include "kernels/hlle.h"
#include "kernels/rhs.h"
#include "kernels/weno.h"

namespace mpcf::perf {

namespace {

struct StageOps {
  const char* name;
  double flops;  ///< per evaluation unit (FMA = 2)
  double fma;    ///< fused ops per evaluation unit
  double units;  ///< evaluations per block
};

}  // namespace

std::vector<StageIssueModel> issue_rate_model(int bs) {
  const double n = bs + 2.0 * kGhosts;
  const double lines = 3.0 * bs * static_cast<double>(bs);
  const double cells = static_cast<double>(bs) * bs * bs;

  // Units and counts follow kernels::rhs_flops: WENO is one cell-centred
  // evaluation of the 7 primitives per line cell (bs+2 per line), its FMA
  // count read off weno5_cell (kWenoFmas); HLLE runs per face (bs+1 per
  // line) and fuses the kinetic-energy and flux blends (~6); CONV fuses the
  // velocity-norm chain (3); SUM is pure add/sub over 8 accumulators (a
  // subtraction in x, an add and a subtraction in y and in z); BACK fuses
  // a*tmp + rhs.
  const StageOps stages[] = {
      {"CONV", 14.0, 3.0, n * n * n},
      {"WENO", 1.0 * kNumQuantities * kernels::kWenoFlops,
       1.0 * kNumQuantities * kernels::kWenoFmas, lines * (bs + 2.0)},
      {"HLLE", static_cast<double>(kernels::kHlleFlops), 6.0, lines * (bs + 1.0)},
      {"SUM", 40.0, 0.0, cells},
      {"BACK", 25.0, 7.0, cells},
  };

  std::vector<StageIssueModel> out;
  double total_flops = 0, total_instr = 0;
  for (const auto& s : stages) total_flops += s.flops * s.units;
  for (const auto& s : stages) {
    const double flops = s.flops * s.units;
    const double instr = (s.flops - s.fma) * s.units;
    total_instr += instr;
    const double density = flops / instr;
    out.push_back({s.name, flops / total_flops, density, density * 4.0 / 8.0});
  }
  const double all_density = total_flops / total_instr;
  out.push_back({"ALL", 1.0, all_density, all_density * 4.0 / 8.0});
  return out;
}

}  // namespace mpcf::perf
