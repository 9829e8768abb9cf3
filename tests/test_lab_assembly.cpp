// Differential tests of BlockLab bulk assembly against the per-cell fetch
// oracle: for every boundary-condition fold (absorbing clamp, wall mirror
// with momentum sign flip, periodic wrap, and mixed per-face settings) and
// for every block position (faces, edges, corners), the bulk load must
// reproduce the per-cell path bitwise. A cluster rank's lab, which reads the
// halo slabs row by row, is checked against the per-cell fetch_remote path.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster_simulation.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "grid/lab.h"
#include "rank_cases.h"

namespace mpcf {
namespace {

/// Uniquely tags every cell so that any block/cell/sign mix-up is visible.
void tag_grid(Grid& g) {
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        Cell c;
        c.rho = static_cast<Real>(1 + ix + 100 * iy + 10000 * iz);
        c.ru = static_cast<Real>(10 + ix);
        c.rv = static_cast<Real>(20 + iy);
        c.rw = static_cast<Real>(30 + iz);
        c.E = static_cast<Real>(ix * iy + iz);
        c.G = static_cast<Real>(2 + ix);
        c.P = static_cast<Real>(3 + iz);
        g.cell(ix, iy, iz) = c;
      }
}

void expect_labs_bitwise(const BlockLab& a, const BlockLab& b) {
  const int bs = a.block_size(), g = a.ghosts();
  for (int q = 0; q < kNumQuantities; ++q)
    for (int iz = -g; iz < bs + g; ++iz)
      for (int iy = -g; iy < bs + g; ++iy)
        for (int ix = -g; ix < bs + g; ++ix)
          ASSERT_EQ(a(q, ix, iy, iz), b(q, ix, iy, iz))
              << "q=" << q << " (" << ix << "," << iy << "," << iz << ")";
}

/// Loads every block of `g` through both paths and compares bitwise.
void check_all_blocks(Grid& g, const BoundaryConditions& bc) {
  const int bs = g.block_size();
  BlockLab oracle, bulk;
  oracle.resize(bs);
  bulk.resize(bs);
  for (int bz = 0; bz < g.blocks_z(); ++bz)
    for (int by = 0; by < g.blocks_y(); ++by)
      for (int bx = 0; bx < g.blocks_x(); ++bx) {
        SCOPED_TRACE(testing::Message() << "block (" << bx << "," << by << "," << bz << ")");
        oracle.load(g, bx, by, bz,
                    [&](int ix, int iy, int iz) { return g.cell_folded(ix, iy, iz, bc); });
        bulk.load(g, bx, by, bz, bc);
        expect_labs_bitwise(oracle, bulk);
      }
}

TEST(LabAssembly, AbsorbingMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kAbsorbing));
}

TEST(LabAssembly, WallMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kWall));
}

TEST(LabAssembly, PeriodicMatchesPerCellFetch) {
  Grid g(2, 2, 2, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kPeriodic));
}

TEST(LabAssembly, MixedPerFaceBcsMatchPerCellFetch) {
  // Different fold on every axis, asymmetric lo/hi on x: corner ghosts
  // combine three distinct folds (and two momentum sign flips on y-walls).
  Grid g(3, 2, 1, 8, 1.0);
  tag_grid(g);
  BoundaryConditions bc;
  bc.face[0] = {BCType::kAbsorbing, BCType::kWall};
  bc.face[1] = {BCType::kWall, BCType::kWall};
  bc.face[2] = {BCType::kPeriodic, BCType::kPeriodic};
  check_all_blocks(g, bc);
}

TEST(LabAssembly, SingleBlockGridFoldsOntoItself) {
  Grid g(1, 1, 1, 8, 1.0);
  tag_grid(g);
  check_all_blocks(g, BoundaryConditions::all(BCType::kPeriodic));
  check_all_blocks(g, BoundaryConditions::all(BCType::kWall));
}

/// Tags every cell of a cluster run by its global coordinates, so a slab
/// cell read from the wrong rank, face, layer or position is visible.
void tag_cluster(cluster::ClusterSimulation& cs) {
  for (const int r : cs.local_ranks()) {
    Grid& g = cs.rank_sim(r).grid();
    int cx, cy, cz;
    cs.topology().coords(r, cx, cy, cz);
    const int ox = cx * g.cells_x(), oy = cy * g.cells_y(), oz = cz * g.cells_z();
    for (int iz = 0; iz < g.cells_z(); ++iz)
      for (int iy = 0; iy < g.cells_y(); ++iy)
        for (int ix = 0; ix < g.cells_x(); ++ix) {
          const int gx = ox + ix, gy = oy + iy, gz = oz + iz;
          Cell c;
          c.rho = static_cast<Real>(1 + gx + 100 * gy + 10000 * gz);
          c.ru = static_cast<Real>(10 + gx);
          c.rv = static_cast<Real>(20 + gy);
          c.rw = static_cast<Real>(30 + gz);
          c.E = static_cast<Real>(gx * gy + gz);
          c.G = static_cast<Real>(2 + gx);
          c.P = static_cast<Real>(3 + gz);
          g.cell(ix, iy, iz) = c;
        }
  }
}

TEST(LabAssembly, ClusterFetchRemoteInterceptMatchesPerCellPath) {
  // Every rank lab — the slab-aware bulk load a rank's Simulation runs —
  // equals the per-cell fetch_remote oracle on every lab cell, edges and
  // corners included, for every topology and BC set of RankEquivalenceTest
  // (periodic self-axis wraps, walls, and the cluster_weak shape).
  for (const testing_cases::RankCase& rc : testing_cases::rank_cases()) {
    SCOPED_TRACE(testing::Message() << rc);
    Simulation::Params p;
    p.bc = rc.bc;
    auto cs = std::make_unique<cluster::ClusterSimulation>(
        4, 4, 4, rc.bs, cluster::CartTopology(rc.rx, rc.ry, rc.rz), p);
    tag_cluster(*cs);
    cs->exchange_halos();

    BlockLab oracle;
    oracle.resize(rc.bs);
    for (int r = 0; r < cs->rank_count(); ++r) {
      Simulation& sim = cs->rank_sim(r);
      const Grid& g = sim.grid();
      int cx, cy, cz;
      cs->topology().coords(r, cx, cy, cz);
      const int ox = cx * g.cells_x(), oy = cy * g.cells_y(), oz = cz * g.cells_z();
      for (int b = 0; b < g.block_count(); ++b) {
        int bx, by, bz;
        g.indexer().coords(b, bx, by, bz);
        SCOPED_TRACE(testing::Message()
                     << "rank " << r << " block (" << bx << "," << by << "," << bz << ")");
        // fetch_remote takes global coordinates; the lab hands out rank-local
        // ones. A declined cell is in the rank box, unfolded.
        oracle.load(g, bx, by, bz, [&](int ix, int iy, int iz) {
          Cell c;
          if (cs->fetch_remote(r, ix + ox, iy + oy, iz + oz, c)) return c;
          return g.cell(ix, iy, iz);
        });
        sim.assemble_lab(b, 0);
        expect_labs_bitwise(oracle, sim.lab(0));
      }
    }
  }
}

}  // namespace
}  // namespace mpcf
