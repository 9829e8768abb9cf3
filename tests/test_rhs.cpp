// Integration tests of the block RHS kernel: free-stream preservation,
// discrete conservation, implementation parity (scalar / SIMD / fused).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "eos/stiffened_gas.h"
#include "grid/grid.h"
#include "grid/lab.h"
#include "kernels/hlle.h"
#include "kernels/rhs.h"
#include "kernels/weno.h"

namespace mpcf::kernels {
namespace {

constexpr int kBs = 8;

Cell cell_from_primitive(double rho, double u, double v, double w, double p, double G,
                         double Pi) {
  Cell c;
  c.rho = static_cast<Real>(rho);
  c.ru = static_cast<Real>(rho * u);
  c.rv = static_cast<Real>(rho * v);
  c.rw = static_cast<Real>(rho * w);
  c.G = static_cast<Real>(G);
  c.P = static_cast<Real>(Pi);
  c.E = static_cast<Real>(eos::total_energy(rho, u, v, w, p, G, Pi));
  return c;
}

/// Evaluates the RHS of block 0 of a single-block grid, returning block.tmp.
void eval(Grid& grid, const BoundaryConditions& bc, KernelImpl impl) {
  BlockLab lab;
  lab.resize(grid.block_size());
  RhsWorkspace ws;
  ws.resize(grid.block_size());
  lab.load(grid, 0, 0, 0, bc);
  rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws, impl);
}

// --- Free-stream preservation -------------------------------------------

class FreeStreamTest : public ::testing::TestWithParam<KernelImpl> {};

TEST_P(FreeStreamTest, UniformSinglePhaseGivesZeroRhs) {
  Grid grid(1, 1, 1, kBs, 1.0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        grid.cell(ix, iy, iz) = cell_from_primitive(
            1000.0, 10.0, -5.0, 2.0, 100e5, materials::kLiquid.Gamma(),
            materials::kLiquid.Pi());
  eval(grid, BoundaryConditions::all(BCType::kPeriodic), GetParam());
  const Block& b = grid.block(0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        for (int q = 0; q < kNumQuantities; ++q) {
          // Energy-flux scale: (E+p)u/h ~ 4e10; float round-off leaves a
          // residual of order eps * scale ~ 3e3. "Zero" means far below the
          // physical flux-divergence scale, not exactly zero bits.
          EXPECT_LT(std::fabs(b.tmp(ix, iy, iz).q(q)), 5e3f)
              << "q=" << q << " at " << ix << "," << iy << "," << iz;
        }
}

TEST_P(FreeStreamTest, UniformPressureVelocityAcrossInterface) {
  // The Johnsen-Ham property: uniform p and u with a phase contrast (G, Pi,
  // rho vary) must keep pressure and velocity uniform: the momentum RHS has
  // no spurious pressure forcing beyond float round-off of the advective
  // terms (u=0 here, so the momentum/energy RHS must vanish).
  Grid grid(1, 1, 1, kBs, 1.0);
  const double p0 = 50e5;
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix) {
        const double alpha = 0.5 * (1.0 + std::tanh((ix - kBs / 2.0)));
        const auto m = eos::mix(materials::kVapor, materials::kLiquid, alpha);
        const double rho = alpha * 1.0 + (1 - alpha) * 1000.0;
        grid.cell(ix, iy, iz) = cell_from_primitive(rho, 0, 0, 0, p0, m.G, m.Pi);
      }
  eval(grid, BoundaryConditions::all(BCType::kPeriodic), GetParam());
  const Block& b = grid.block(0);
  // Pressure-forcing scale in the momentum RHS: p0/h ~ 4e7. In float, E is
  // dominated by the liquid stiffness Pi ~ 4.8e8, so the recovered pressure
  // carries ~eps(Pi)/Gamma ~ 2e2 Pa of representation noise; equilibrium
  // holds to ~1e-5 of the forcing scale, not to eps(p0).
  const double tol_mom = p0 / grid.h() * 2e-5;
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix) {
        EXPECT_LT(std::fabs(b.tmp(ix, iy, iz).ru), tol_mom);
        EXPECT_LT(std::fabs(b.tmp(ix, iy, iz).rv), tol_mom);
        EXPECT_LT(std::fabs(b.tmp(ix, iy, iz).rw), tol_mom);
      }
}

TEST_P(FreeStreamTest, UniformStateAtRestHasExactlyZeroRhs) {
  // Every face of a uniform field sees identical states on both sides (the
  // reconstruction is mirror-symmetric bitwise) and every face of a sweep
  // runs the same code, so a fluid at rest stays exactly at rest.
  Grid grid(1, 1, 1, kBs, 1.0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        grid.cell(ix, iy, iz) = cell_from_primitive(
            1000.0, 0, 0, 0, 100e5, materials::kLiquid.Gamma(), materials::kLiquid.Pi());
  eval(grid, BoundaryConditions::all(BCType::kPeriodic), GetParam());
  const Block& b = grid.block(0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(b.tmp(ix, iy, iz).q(q), 0.0f)
              << "q=" << q << " at " << ix << "," << iy << "," << iz;
}

INSTANTIATE_TEST_SUITE_P(AllImpls, FreeStreamTest,
                         ::testing::Values(KernelImpl::kScalar, KernelImpl::kSimd,
                                           KernelImpl::kSimdFused));

// --- Conservation ---------------------------------------------------------

class ConservationTest : public ::testing::TestWithParam<KernelImpl> {};

TEST_P(ConservationTest, PeriodicRhsSumsToZero) {
  // In a periodic domain the flux-divergence form must conserve rho, momenta
  // and E exactly up to float round-off: the RHS sums to ~0.
  Grid grid(1, 1, 1, kBs, 1.0);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> upert(-0.05, 0.05);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix) {
        const double rho = 1000.0 * (1.0 + upert(rng));
        const double p = 100e5 * (1.0 + upert(rng));
        grid.cell(ix, iy, iz) =
            cell_from_primitive(rho, 20.0 * upert(rng), 20.0 * upert(rng),
                                20.0 * upert(rng), p, materials::kLiquid.Gamma(),
                                materials::kLiquid.Pi());
      }
  eval(grid, BoundaryConditions::all(BCType::kPeriodic), GetParam());

  const Block& b = grid.block(0);
  double sum[kNumQuantities] = {};
  double scale[kNumQuantities] = {};
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        for (int q = 0; q < kNumQuantities; ++q) {
          sum[q] += b.tmp(ix, iy, iz).q(q);
          scale[q] += std::fabs(b.tmp(ix, iy, iz).q(q));
        }
  // Conserved components: rho, momenta, E. (G and P are intentionally
  // non-conservative — the interface fix trades that for p/u equilibrium.)
  for (int q = 0; q <= Q_E; ++q)
    EXPECT_LT(std::fabs(sum[q]), 1e-4 * scale[q] + 1e-5)
        << "component " << q << " not conserved";
}

INSTANTIATE_TEST_SUITE_P(AllImpls, ConservationTest,
                         ::testing::Values(KernelImpl::kScalar, KernelImpl::kSimd,
                                           KernelImpl::kSimdFused));

// --- Implementation parity -------------------------------------------------

TEST(RhsParity, SimdMatchesScalar) {
  auto make_grid = [] {
    auto grid = std::make_unique<Grid>(1, 1, 1, kBs, 1.0);
    std::mt19937 rng(123);
    std::uniform_real_distribution<double> upert(-0.2, 0.2);
    for (int iz = 0; iz < kBs; ++iz)
      for (int iy = 0; iy < kBs; ++iy)
        for (int ix = 0; ix < kBs; ++ix) {
          const double alpha = 0.5 * (1 + std::sin(0.4 * ix + 0.8 * iy + 1.2 * iz));
          const auto m = eos::mix(materials::kVapor, materials::kLiquid, alpha);
          const double rho = 1.0 + 999.0 * (1 - alpha) * (1 + 0.1 * upert(rng));
          const double p = 1e5 + 99e5 * (1 - alpha);
          grid->cell(ix, iy, iz) = cell_from_primitive(rho, 30 * upert(rng),
                                                       30 * upert(rng), 30 * upert(rng),
                                                       p, m.G, m.Pi);
        }
    return grid;
  };

  auto g_scalar = make_grid();
  auto g_simd = make_grid();
  auto g_fused = make_grid();
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  eval(*g_scalar, bc, KernelImpl::kScalar);
  eval(*g_simd, bc, KernelImpl::kSimd);
  eval(*g_fused, bc, KernelImpl::kSimdFused);

  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        for (int q = 0; q < kNumQuantities; ++q) {
          const double ref = g_scalar->block(0).tmp(ix, iy, iz).q(q);
          const double vs = g_simd->block(0).tmp(ix, iy, iz).q(q);
          const double vf = g_fused->block(0).tmp(ix, iy, iz).q(q);
          // Stiffened-liquid energy fluxes are cancellation-heavy in float;
          // compiler-scheduled scalar code and explicit intrinsics may
          // contract FMAs differently, so parity is ~1e-3 relative.
          const double tol = 1e-3 * (std::fabs(ref) + 1e3);
          EXPECT_NEAR(vs, ref, tol) << "staged simd mismatch q=" << q;
          EXPECT_NEAR(vf, ref, tol) << "fused simd mismatch q=" << q;
          EXPECT_NEAR(vf, vs, tol) << "fused vs staged mismatch q=" << q;
        }
}

TEST(RhsWeno3, FreeStreamAndConservationHold) {
  // The low-order ablation path must satisfy the same structural
  // invariants: zero RHS on uniform states, conservation on periodic boxes.
  Grid grid(1, 1, 1, kBs, 1.0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        grid.cell(ix, iy, iz) = cell_from_primitive(
            1000.0, 10.0, -5.0, 2.0, 100e5, materials::kLiquid.Gamma(),
            materials::kLiquid.Pi());
  BlockLab lab;
  lab.resize(kBs);
  RhsWorkspace ws;
  ws.resize(kBs);
  lab.load(grid, 0, 0, 0, BoundaryConditions::all(BCType::kPeriodic));
  rhs_block(lab, static_cast<Real>(grid.h()), 0.0f, grid.block(0), ws,
            KernelImpl::kSimdFused, /*weno_order=*/3);
  const Block& b = grid.block(0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          EXPECT_LT(std::fabs(b.tmp(ix, iy, iz).q(q)), 5e3f);
}

TEST(RhsWeno3, RejectsInvalidOrder) {
  Grid grid(1, 1, 1, kBs, 1.0);
  BlockLab lab;
  lab.resize(kBs);
  RhsWorkspace ws;
  ws.resize(kBs);
  lab.load(grid, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));
  EXPECT_THROW(rhs_block(lab, 0.1f, 0.0f, grid.block(0), ws, KernelImpl::kScalar, 4),
               PreconditionError);
}

TEST(RhsAccumulation, LowStorageCoefficientScalesPreviousTmp) {
  // tmp <- a*tmp + RHS: with a=0.5 and a prior tmp of known value, the
  // result must shift by exactly 0.5*prior relative to a=0.
  Grid g1(1, 1, 1, kBs, 1.0), g2(1, 1, 1, kBs, 1.0);
  for (int iz = 0; iz < kBs; ++iz)
    for (int iy = 0; iy < kBs; ++iy)
      for (int ix = 0; ix < kBs; ++ix) {
        const Cell c = cell_from_primitive(1000.0, 5.0 * std::sin(ix * 0.7), 0, 0,
                                           100e5 * (1 + 0.01 * std::cos(iy)),
                                           materials::kLiquid.Gamma(),
                                           materials::kLiquid.Pi());
        g1.cell(ix, iy, iz) = c;
        g2.cell(ix, iy, iz) = c;
        Cell t;
        for (int q = 0; q < kNumQuantities; ++q) t.q(q) = static_cast<Real>(q + 1);
        g2.block(0).tmp(ix, iy, iz) = t;  // g1 tmp stays zero
      }
  BlockLab lab;
  lab.resize(kBs);
  RhsWorkspace ws;
  ws.resize(kBs);
  const auto bc = BoundaryConditions::all(BCType::kPeriodic);
  lab.load(g1, 0, 0, 0, bc);
  rhs_block(lab, static_cast<Real>(g1.h()), 0.0f, g1.block(0), ws, KernelImpl::kScalar);
  lab.load(g2, 0, 0, 0, bc);
  rhs_block(lab, static_cast<Real>(g2.h()), 0.5f, g2.block(0), ws, KernelImpl::kScalar);

  for (int q = 0; q < kNumQuantities; ++q) {
    const double want = g1.block(0).tmp(2, 3, 4).q(q) + 0.5 * (q + 1);
    EXPECT_NEAR(g2.block(0).tmp(2, 3, 4).q(q), want,
                1e-4 * (std::fabs(want) + 1.0));
  }
}

TEST(RhsFlops, ModelIsPositiveAndScalesCubically) {
  EXPECT_GT(rhs_flops(8), 0.0);
  // Doubling the block edge multiplies work by ~8.
  EXPECT_NEAR(rhs_flops(32) / rhs_flops(16), 8.0, 1.0);
  // Per face of a sweep line: one cell reconstruction of the 7 primitives
  // (both face values; the cell beyond the line's last face adds one more
  // per line) and one HLLE flux. Per interior cell: CONV of its lab cell
  // (ghosts add the rest), 40 SUM flops over the 8 accumulators and 25
  // BACK flops.
  EXPECT_EQ(kWenoFlops, 92);
  EXPECT_EQ(kNumQuantities * kWenoFlops + kHlleFlops, 723);
  for (const int bs : {8, 16, 32}) {
    const double lines = 3.0 * bs * bs, cells = double(bs) * bs * bs;
    const double n = bs + 2.0 * kGhosts;
    const double per_face = 723.0 * lines * (bs + 1.0);
    const double line_ends = 644.0 * lines;
    EXPECT_DOUBLE_EQ(rhs_flops(bs), per_face + line_ends + 14.0 * n * n * n + 65.0 * cells)
        << "bs=" << bs;
  }
}

}  // namespace
}  // namespace mpcf::kernels
