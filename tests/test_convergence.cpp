// Measured convergence order of the production RHS: a smooth density wave
// advected through a periodic box (the setup of bench_ablation_order)
// through Simulation, at 32, 64 and 128 cells.
//
// Two parameters differ from the ablation bench, which advects one
// 5 %-amplitude wavelength at 30 m/s: there the WENO5 error is already at
// the float round-off floor at 32 cells (a 1000 kg/m^3 density stored in
// float, rounded once per step over ~5000 steps at 128 cells), so it grows
// with resolution instead of converging. Two 30 %-amplitude wavelengths at
// 300 m/s (Mach 0.18) need 10x fewer steps for the same distance and put
// the truncation error above that floor at every resolution.
#include <gtest/gtest.h>

#include <cmath>

#include "core/simulation.h"
#include "eos/stiffened_gas.h"

namespace mpcf {
namespace {

constexpr double kSpeed = 300.0;  // advection speed [m/s]
constexpr double kWaves = 2.0;    // wavelengths in the unit box
constexpr double kAmp = 0.3;      // relative density amplitude

double density(double x) {
  return 1000.0 * (1.0 + kAmp * std::sin(2.0 * M_PI * kWaves * x));
}

/// L1 density error after advecting the wave over a fifth of the box.
double advect_l1(int cells, int order) {
  Simulation::Params params;
  params.extent = 1.0;
  params.bc = BoundaryConditions::all(BCType::kPeriodic);
  params.weno_order = order;
  params.rho_floor = 0;  // smooth flow: no guard interference
  params.p_floor = 0;
  Simulation sim(cells / 8, 1, 1, 8, params);
  Grid& g = sim.grid();
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  const double p0 = 100e5;
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double rho = density(g.cell_center(ix));
        Cell c;
        c.rho = static_cast<Real>(rho);
        c.ru = static_cast<Real>(rho * kSpeed);
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(G * p0 + Pi + 0.5 * rho * kSpeed * kSpeed);
        g.cell(ix, iy, iz) = c;
      }
  while (sim.time() < 0.2 / kSpeed) sim.step();
  double err = 0;
  for (int ix = 0; ix < g.cells_x(); ++ix)
    err += std::fabs(g.cell(ix, 3, 3).rho - density(g.cell_center(ix) - kSpeed * sim.time()));
  return err / g.cells_x();
}

TEST(Convergence, Weno5ObservedOrderAndWeno3Comparison) {
  const int cells[3] = {32, 64, 128};
  double e5[3], e3[3];
  for (int i = 0; i < 3; ++i) {
    e5[i] = advect_l1(cells[i], 5);
    e3[i] = advect_l1(cells[i], 3);
    EXPECT_LT(e5[i], e3[i]) << cells[i] << " cells";
  }
  // Measured on an AVX-512 Xeon at vec8 and vec4 alike: 4.79 (32 -> 64
  // cells) and 4.80 (64 -> 128); Jiang-Shu WENO5 loses some of its fifth
  // order at the wave's extrema. The bound keeps a margin of ~0.5 below the
  // measured order, so a rework that drops to third order fails it.
  for (int i = 1; i < 3; ++i) {
    const double order = std::log2(e5[i - 1] / e5[i]);
    EXPECT_GT(order, 4.3) << "WENO5 order " << cells[i - 1] << " -> " << cells[i]
                          << " cells: L1 " << e5[i - 1] << " -> " << e5[i];
  }
}

}  // namespace
}  // namespace mpcf
