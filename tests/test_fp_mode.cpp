// Subnormal flushing (simd/fp_mode.h): every thread that runs kernel
// arithmetic on simulation state runs under FTZ|DAZ, so a subnormal never
// survives a step, every execution path computes in the same mode, and the
// caller's MXCSR is left as it was.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "cluster/cluster_simulation.h"
#include "core/simulation.h"
#include "eos/stiffened_gas.h"
#include "simd/fp_mode.h"

namespace mpcf {
namespace {

constexpr int kBlocks = 4, kBs = 8;  // 32^3 cells

Simulation::Params box_params(bool fused, simd::Width width) {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(BCType::kPeriodic);
  p.fused_step = fused;
  p.width = width;
  return p;
}

/// Periodic liquid box at rest with a smooth pressure bump in the middle
/// and a few far-field cells carrying subnormal momenta. The bump is exactly
/// uniform in float beyond ~4 cells and a step reaches 9 cells further (3
/// per RK stage), so in three steps nothing reaches the seeded cells: their
/// momenta only flush if the arithmetic that touches them runs flushed.
void init_box(Grid& g) {
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  const double c = 0.5 * g.cells_x();
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double r2 = (ix - c) * (ix - c) + (iy - c) * (iy - c) + (iz - c) * (iz - c);
        const double p = 100e5 * (1.0 + 0.2 * std::exp(-r2 / 4.0));
        Cell& cell = g.cell(ix, iy, iz);
        cell.rho = 1000.0f;
        cell.ru = cell.rv = cell.rw = 0.0f;
        cell.G = static_cast<Real>(G);
        cell.P = static_cast<Real>(Pi);
        cell.E = static_cast<Real>(G * p + Pi);
      }
  g.cell(0, 0, 0).ru = 1e-40f;
  g.cell(31, 1, 3).rv = -3e-39f;
  g.cell(2, 30, 31).rw = 1e-42f;
  g.cell(1, 31, 0).ru = -1e-41f;
}

long subnormals(const Grid& g) {
  long n = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    const Block& blk = g.block(b);
    for (const Cell* cells : {blk.data(), blk.tmp_data()})
      for (std::size_t k = 0; k < blk.cells(); ++k)
        for (int q = 0; q < kNumQuantities; ++q)
          n += std::fpclassify(cells[k].q(q)) == FP_SUBNORMAL ? 1 : 0;
  }
  return n;
}

bool same_bits(const Grid& a, const Grid& b) {
  for (int iz = 0; iz < a.cells_z(); ++iz)
    for (int iy = 0; iy < a.cells_y(); ++iy)
      for (int ix = 0; ix < a.cells_x(); ++ix)
        if (std::memcmp(&a.cell(ix, iy, iz), &b.cell(ix, iy, iz), sizeof(Cell)) != 0)
          return false;
  return true;
}

/// MXCSR bits that must not change across a step on the calling thread: the
/// control bits (rounding, exception masks, FTZ, DAZ) and the two sticky
/// flags that record subnormal arithmetic, DE (operand) and UE (result).
/// The other flags (inexact, ...) record ordinary bookkeeping arithmetic.
constexpr unsigned kSubnormalFlags = 0x12u;  // DE (bit 1) | UE (bit 4)
unsigned mxcsr_mode() {
#if MPCF_SIMD_SSE
  return _mm_getcsr() & ~(0x3Fu & ~kSubnormalFlags);
#else
  return 0;
#endif
}

void clear_subnormal_flags() {
#if MPCF_SIMD_SSE
  _mm_setcsr(_mm_getcsr() & ~kSubnormalFlags);
#endif
}

TEST(FpMode, ScopeSetsFlushBitsAndRestoresCaller) {
  clear_subnormal_flags();
  const unsigned before = mxcsr_mode();
  {
    const simd::FlushSubnormals outer;
#if MPCF_SIMD_SSE
    EXPECT_EQ(mxcsr_mode() & simd::FlushSubnormals::kFtzDaz, simd::FlushSubnormals::kFtzDaz);
#endif
    {
      const simd::FlushSubnormals inner;
    }
#if MPCF_SIMD_SSE
    EXPECT_EQ(mxcsr_mode() & simd::FlushSubnormals::kFtzDaz, simd::FlushSubnormals::kFtzDaz);
#endif
  }
  EXPECT_EQ(mxcsr_mode(), before);
}

class SubnormalTest : public ::testing::TestWithParam<simd::Width> {};

TEST_P(SubnormalTest, SubnormalMomentaAreFlushedOnEveryPath) {
  const simd::Width w = GetParam();
  Simulation fused(kBlocks, kBlocks, kBlocks, kBs, box_params(true, w));
  Simulation staged(kBlocks, kBlocks, kBlocks, kBs, box_params(false, w));
  init_box(fused.grid());
  init_box(staged.grid());
  ASSERT_EQ(subnormals(fused.grid()), 4);

  cluster::ClusterSimulation cluster(kBlocks, kBlocks, kBlocks, kBs,
                                     cluster::CartTopology(2, 1, 1), box_params(true, w));
  cluster.scatter(fused.grid());

  // A step leaves the caller's mode as it was, and no subnormal arithmetic
  // runs unflushed on the calling thread (an OpenMP master thread runs the
  // regions' work too).
  clear_subnormal_flags();
  const unsigned before = mxcsr_mode();
  for (int s = 0; s < 3; ++s) {
    const double dt = fused.step();
    EXPECT_EQ(mxcsr_mode(), before) << "fused step " << s;
    EXPECT_EQ(staged.step(), dt) << "step " << s;
    EXPECT_EQ(mxcsr_mode(), before) << "staged step " << s;
    EXPECT_EQ(cluster.step(), dt) << "step " << s;
    EXPECT_EQ(mxcsr_mode(), before) << "cluster step " << s;
  }

  EXPECT_EQ(subnormals(fused.grid()), 0);
  EXPECT_EQ(subnormals(staged.grid()), 0);
  for (int r = 0; r < cluster.rank_count(); ++r)
    EXPECT_EQ(subnormals(cluster.rank_sim(r).grid()), 0) << "rank " << r;

  EXPECT_TRUE(same_bits(fused.grid(), staged.grid())) << "fused != fused_step=false";
  Grid gathered(kBlocks, kBlocks, kBlocks, kBs, fused.params().extent);
  cluster.gather(gathered);
  EXPECT_TRUE(same_bits(fused.grid(), gathered)) << "2x1x1 ranks != one rank";
}

// The scalar kernel and the runtime-dispatched vector width (the widest the
// host runs, or the MPCF_SIMD_WIDTH pin).
INSTANTIATE_TEST_SUITE_P(Widths, SubnormalTest,
                         ::testing::Values(simd::Width::kScalar, simd::Width::kAuto));

}  // namespace
}  // namespace mpcf
