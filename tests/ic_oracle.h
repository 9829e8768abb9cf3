// Per-cell oracle of the bubble initial conditions: every cell evaluates
// vapor_fraction over every bubble, cell by cell in global order.
// set_cloud_ic and set_shock_bubble_ic cull bubbles per block
// (kBubbleCullWidths) and must reproduce it bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "grid/grid.h"
#include "workload/cloud.h"

namespace mpcf::ic_oracle {

inline void set_cloud_ic_per_cell(Grid& grid, const std::vector<Bubble>& bubbles,
                                  const TwoPhaseIC& ic) {
  const double delta = ic.smoothing_cells * grid.h();
  for (int iz = 0; iz < grid.cells_z(); ++iz)
    for (int iy = 0; iy < grid.cells_y(); ++iy)
      for (int ix = 0; ix < grid.cells_x(); ++ix)
        grid.cell(ix, iy, iz) = mixture_cell(
            vapor_fraction(grid.cell_center(ix), grid.cell_center(iy), grid.cell_center(iz),
                           bubbles, delta),
            ic, ic.p_liquid);
}

inline void set_shock_bubble_ic_per_cell(Grid& grid, const ShockBubbleIC& ic) {
  const double extent = grid.h() * grid.cells_x();
  const std::vector<Bubble> one{Bubble{ic.bubble.x * extent, ic.bubble.y * extent,
                                       ic.bubble.z * extent, ic.bubble.r * extent}};
  const double delta = ic.phases.smoothing_cells * grid.h();
  const double xs = ic.shock_x * extent;
  // Stiffened-gas Rankine-Hugoniot state behind a right-running shock.
  const StiffenedGas& l = ic.phases.liquid;
  const double p1 = ic.phases.p_liquid, p2 = p1 * ic.p_ratio;
  const double r1 = ic.phases.rho_liquid, g = l.gamma;
  const double ph1 = p1 + l.pc, ph2 = p2 + l.pc;
  const double r2 = r1 * ((g + 1.0) * ph2 + (g - 1.0) * ph1) /
                    ((g - 1.0) * ph2 + (g + 1.0) * ph1);
  const double us = std::sqrt(ph1 / r1 * ((g + 1.0) / 2.0 * ph2 / ph1 + (g - 1.0) / 2.0));
  const double u2 = us * (1.0 - r1 / r2);
  for (int iz = 0; iz < grid.cells_z(); ++iz)
    for (int iy = 0; iy < grid.cells_y(); ++iy)
      for (int ix = 0; ix < grid.cells_x(); ++ix) {
        const double x = grid.cell_center(ix);
        const double alpha =
            vapor_fraction(x, grid.cell_center(iy), grid.cell_center(iz), one, delta);
        Cell c = mixture_cell(alpha, ic.phases, p1);
        if (x < xs && alpha < 0.5) {
          c.rho = static_cast<Real>(r2);
          c.ru = static_cast<Real>(r2 * u2);
          c.G = static_cast<Real>(l.Gamma());
          c.P = static_cast<Real>(l.Pi());
          c.E = static_cast<Real>(l.Gamma() * p2 + l.Pi() + 0.5 * r2 * u2 * u2);
        }
        grid.cell(ix, iy, iz) = c;
      }
}

/// memcmp of every block's cells; names the first differing cell.
inline ::testing::AssertionResult blocks_bitwise_equal(const Grid& a, const Grid& b) {
  if (a.blocks_x() != b.blocks_x() || a.blocks_y() != b.blocks_y() ||
      a.blocks_z() != b.blocks_z() || a.block_size() != b.block_size())
    return ::testing::AssertionFailure() << "grid shapes differ";
  for (int i = 0; i < a.block_count(); ++i) {
    const Block& ba = a.block(i);
    const Block& bb = b.block(i);
    if (std::memcmp(ba.data(), bb.data(), ba.cells() * sizeof(Cell)) == 0) continue;
    for (std::size_t k = 0; k < ba.cells(); ++k)
      if (std::memcmp(&ba.data()[k], &bb.data()[k], sizeof(Cell)) != 0)
        return ::testing::AssertionFailure()
               << "block " << i << ", cell " << k << ": rho " << ba.data()[k].rho
               << " vs " << bb.data()[k].rho << ", G " << ba.data()[k].G << " vs "
               << bb.data()[k].G;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace mpcf::ic_oracle
