// Unit tests for blocks, grid addressing, boundary folding and the BlockLab.
#include <gtest/gtest.h>

#include "grid/grid.h"
#include "grid/lab.h"
#include "lab_oracle.h"

namespace mpcf {
namespace {

Cell tagged_cell(int ix, int iy, int iz) {
  Cell c;
  c.rho = static_cast<Real>(1 + ix);
  c.ru = static_cast<Real>(10 + iy);
  c.rv = static_cast<Real>(100 + iz);
  c.rw = static_cast<Real>(ix - iy);
  c.E = static_cast<Real>(ix + iy + iz);
  c.G = static_cast<Real>(2.5);
  c.P = static_cast<Real>(3.5);
  return c;
}

void fill_tagged(Grid& g) {
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) g.cell(ix, iy, iz) = tagged_cell(ix, iy, iz);
}

TEST(Grid, GeometryBasics) {
  Grid g(2, 3, 4, 8, 2.0);
  EXPECT_EQ(g.block_count(), 24);
  EXPECT_EQ(g.cells_x(), 16);
  EXPECT_EQ(g.cells_y(), 24);
  EXPECT_EQ(g.cells_z(), 32);
  EXPECT_DOUBLE_EQ(g.h(), 2.0 / 16);
  EXPECT_DOUBLE_EQ(g.cell_center(0), 0.5 * g.h());
}

TEST(Grid, CellAddressingCrossesBlocks) {
  Grid g(2, 2, 2, 8);
  fill_tagged(g);
  for (int iz : {0, 7, 8, 15})
    for (int iy : {0, 3, 9})
      for (int ix : {0, 7, 8, 15}) {
        const Cell c = g.cell(ix, iy, iz);
        EXPECT_EQ(c.rho, tagged_cell(ix, iy, iz).rho);
        EXPECT_EQ(c.E, tagged_cell(ix, iy, iz).E);
      }
}

TEST(Grid, BlocksAreZeroInitialized) {
  Grid g(1, 1, 1, 8);
  EXPECT_EQ(g.cell(3, 4, 5).rho, 0.0f);
  EXPECT_EQ(g.block(0).tmp(1, 2, 3).E, 0.0f);
}

TEST(Boundary, PeriodicFold) {
  const auto bc = BoundaryConditions::all(BCType::kPeriodic);
  EXPECT_EQ(fold_index(-1, 16, bc, 0).i, 15);
  EXPECT_EQ(fold_index(-3, 16, bc, 0).i, 13);
  EXPECT_EQ(fold_index(16, 16, bc, 0).i, 0);
  EXPECT_EQ(fold_index(18, 16, bc, 0).i, 2);
  EXPECT_EQ(fold_index(-1, 16, bc, 0).mom_sign, 1.0f);
}

TEST(Boundary, AbsorbingClamps) {
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  EXPECT_EQ(fold_index(-2, 16, bc, 1).i, 0);
  EXPECT_EQ(fold_index(17, 16, bc, 1).i, 15);
  EXPECT_EQ(fold_index(17, 16, bc, 1).mom_sign, 1.0f);
}

TEST(Boundary, WallMirrorsAndFlips) {
  const auto bc = BoundaryConditions::all(BCType::kWall);
  EXPECT_EQ(fold_index(-1, 16, bc, 2).i, 0);
  EXPECT_EQ(fold_index(-3, 16, bc, 2).i, 2);
  EXPECT_EQ(fold_index(16, 16, bc, 2).i, 15);
  EXPECT_EQ(fold_index(18, 16, bc, 2).i, 13);
  EXPECT_EQ(fold_index(-1, 16, bc, 2).mom_sign, -1.0f);
  EXPECT_EQ(fold_index(16, 16, bc, 2).mom_sign, -1.0f);
}

TEST(Boundary, InteriorIsIdentity) {
  const auto bc = BoundaryConditions::all(BCType::kWall);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(fold_index(i, 16, bc, 0).i, i);
    EXPECT_EQ(fold_index(i, 16, bc, 0).mom_sign, 1.0f);
  }
}

TEST(Boundary, MixedFaces) {
  BoundaryConditions bc;
  bc.face[0] = {BCType::kWall, BCType::kAbsorbing};
  EXPECT_EQ(fold_index(-1, 8, bc, 0).mom_sign, -1.0f);
  EXPECT_EQ(fold_index(8, 8, bc, 0).mom_sign, 1.0f);
  EXPECT_EQ(fold_index(8, 8, bc, 0).i, 7);
}

TEST(GridFolded, WallFlipsOnlyNormalMomentum) {
  Grid g(1, 1, 1, 8);
  fill_tagged(g);
  BoundaryConditions bc;
  bc.face[1] = {BCType::kWall, BCType::kWall};
  const Cell ghost = g.cell_folded(3, -2, 4, bc);
  const Cell mirror = g.cell(3, 1, 4);
  EXPECT_EQ(ghost.ru, mirror.ru);
  EXPECT_EQ(ghost.rv, -mirror.rv);
  EXPECT_EQ(ghost.rw, mirror.rw);
  EXPECT_EQ(ghost.rho, mirror.rho);
}

TEST(BlockLab, InteriorMatchesBlock) {
  Grid g(2, 2, 2, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 1, 0, 1, BoundaryConditions::all(BCType::kAbsorbing));
  for (int iz = 0; iz < 8; ++iz)
    for (int iy = 0; iy < 8; ++iy)
      for (int ix = 0; ix < 8; ++ix) {
        const Cell ref = tagged_cell(8 + ix, iy, 8 + iz);
        for (int q = 0; q < kNumQuantities; ++q) EXPECT_EQ(lab(q, ix, iy, iz), ref.q(q));
      }
}

TEST(BlockLab, GhostsComeFromNeighbourBlocks) {
  Grid g(2, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));
  // Ghosts to the right of block 0 live in block 1.
  for (int k = 0; k < kGhosts; ++k) {
    const Cell ref = tagged_cell(8 + k, 2, 3);
    EXPECT_EQ(lab(Q_RHO, 8 + k, 2, 3), ref.rho);
    EXPECT_EQ(lab(Q_E, 8 + k, 2, 3), ref.E);
  }
}

TEST(BlockLab, PeriodicGhostsWrap) {
  Grid g(2, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  lab.load(g, 0, 0, 0, BoundaryConditions::all(BCType::kPeriodic));
  // Ghost at ix=-1 must equal the cell at global x=15.
  const Cell ref = tagged_cell(15, 4, 4);
  EXPECT_EQ(lab(Q_RHO, -1, 4, 4), ref.rho);
  EXPECT_EQ(lab(Q_RU, -1, 4, 4), ref.ru);
}

TEST(BlockLab, CustomFetcherIsUsedForGhostsOnly) {
  Grid g(1, 1, 1, 8);
  fill_tagged(g);
  BlockLab lab;
  lab.resize(8);
  int fetches = 0;
  lab_oracle::load_per_cell(lab, g, 0, 0, 0, 1, [&](int, int, int) {
    ++fetches;
    return Cell{};
  });
  const int n = 8 + 2 * kGhosts;
  EXPECT_EQ(fetches, n * n * n - 8 * 8 * 8);
  EXPECT_EQ(lab(Q_RHO, -1, 0, 0), 0.0f);       // from fetcher
  EXPECT_EQ(lab(Q_RHO, 0, 0, 0), 1.0f);        // from block
}

}  // namespace
}  // namespace mpcf
