// Differential tests of BlockLab bulk assembly against the per-cell fetch
// oracle (lab_oracle.h): for every boundary-condition fold (absorbing
// clamp, wall mirror with momentum sign flip, periodic wrap, and mixed
// per-face settings) and for every block and 2x2x2-block tile position
// (faces, edges, corners), the bulk load must reproduce the per-cell path
// bitwise. A cluster rank's lab, which reads the halo slabs row by row, is
// checked against the per-cell fetch_remote path, per block and — where the
// rank box tiles — per tile.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster_simulation.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "grid/lab.h"
#include "lab_oracle.h"
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
  ASSERT_EQ(a.edge(), b.edge());
  const int e = a.edge(), g = a.ghosts();
  for (int q = 0; q < kNumQuantities; ++q)
    for (int iz = -g; iz < e + g; ++iz)
      for (int iy = -g; iy < e + g; ++iy)
        for (int ix = -g; ix < e + g; ++ix)
          ASSERT_EQ(a(q, ix, iy, iz), b(q, ix, iy, iz))
              << "q=" << q << " (" << ix << "," << iy << "," << iz << ")";
}

/// Loads every tile of k^3 blocks of `g` (k = 1: every block) through both
/// paths and compares bitwise.
void check_all_tiles(Grid& g, const BoundaryConditions& bc, int k) {
  ASSERT_TRUE(g.blocks_x() % k == 0 && g.blocks_y() % k == 0 && g.blocks_z() % k == 0);
  BlockLab oracle, bulk;
  oracle.resize(k * g.block_size());
  bulk.resize(k * g.block_size());
  for (int bz = 0; bz < g.blocks_z(); bz += k)
    for (int by = 0; by < g.blocks_y(); by += k)
      for (int bx = 0; bx < g.blocks_x(); bx += k) {
        SCOPED_TRACE(testing::Message()
                     << "k=" << k << " from block (" << bx << "," << by << "," << bz << ")");
        lab_oracle::load_per_cell(oracle, g, bx, by, bz, k, [&](int ix, int iy, int iz) {
          return g.cell_folded(ix, iy, iz, bc);
        });
        bulk.load(g, bx, by, bz, bc, nullptr, k);
        expect_labs_bitwise(oracle, bulk);
      }
}

/// Every block, then every 2x2x2 tile.
void check_blocks_and_tiles(Grid& g, const BoundaryConditions& bc) {
  check_all_tiles(g, bc, 1);
  check_all_tiles(g, bc, 2);
}

TEST(LabAssembly, AbsorbingMatchesPerCellFetch) {
  Grid g(4, 4, 4, 8, 1.0);
  tag_grid(g);
  check_blocks_and_tiles(g, BoundaryConditions::all(BCType::kAbsorbing));
}

TEST(LabAssembly, WallMatchesPerCellFetch) {
  Grid g(4, 4, 4, 8, 1.0);
  tag_grid(g);
  check_blocks_and_tiles(g, BoundaryConditions::all(BCType::kWall));
}

TEST(LabAssembly, PeriodicMatchesPerCellFetch) {
  Grid g(4, 4, 4, 8, 1.0);
  tag_grid(g);
  check_blocks_and_tiles(g, BoundaryConditions::all(BCType::kPeriodic));
}

TEST(LabAssembly, MixedPerFaceBcsMatchPerCellFetch) {
  // Different fold on every axis, asymmetric lo/hi on x: corner ghosts
  // combine three distinct folds (and two momentum sign flips on y-walls).
  BoundaryConditions bc;
  bc.face[0] = {BCType::kAbsorbing, BCType::kWall};
  bc.face[1] = {BCType::kWall, BCType::kWall};
  bc.face[2] = {BCType::kPeriodic, BCType::kPeriodic};
  Grid g(3, 2, 1, 8, 1.0);
  tag_grid(g);
  check_all_tiles(g, bc, 1);
  Grid t(4, 2, 2, 8, 1.0);
  tag_grid(t);
  check_blocks_and_tiles(t, bc);
}

TEST(LabAssembly, SingleBlockGridFoldsOntoItself) {
  Grid g(1, 1, 1, 8, 1.0);
  tag_grid(g);
  check_all_tiles(g, BoundaryConditions::all(BCType::kPeriodic), 1);
  check_all_tiles(g, BoundaryConditions::all(BCType::kWall), 1);
  // One tile: its periodic ghosts wrap onto itself across block seams.
  Grid t(2, 2, 2, 8, 1.0);
  tag_grid(t);
  check_all_tiles(t, BoundaryConditions::all(BCType::kPeriodic), 2);
  check_all_tiles(t, BoundaryConditions::all(BCType::kWall), 2);
}

TEST(LabAssembly, ReshapesBetweenBlockAndTileLoads) {
  // One lab sized for a tile serves block loads too, as a thread's lab does
  // in the fused step (tiles) and the staged sweeps (blocks).
  Grid g(4, 4, 4, 8, 1.0);
  tag_grid(g);
  const BoundaryConditions bc = BoundaryConditions::all(BCType::kWall);
  BlockLab lab, oracle;
  lab.resize(16);
  oracle.resize(16);
  for (const int k : {2, 1, 2}) {
    lab.load(g, 2, 0, 2, bc, nullptr, k);
    EXPECT_EQ(lab.edge(), 8 * k);
    lab_oracle::load_per_cell(oracle, g, 2, 0, 2, k, [&](int ix, int iy, int iz) {
      return g.cell_folded(ix, iy, iz, bc);
    });
    expect_labs_bitwise(oracle, lab);
  }
  BlockLab small;
  small.resize(8);
  EXPECT_THROW(small.load(g, 0, 0, 0, bc, nullptr, 2), PreconditionError);
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
  // (periodic self-axis wraps, walls, and the cluster_weak shape): per
  // block, and per tile wherever the rank box tiles.
  int tiled_cases = 0;
  for (const testing_cases::RankCase& rc : testing_cases::rank_cases()) {
    SCOPED_TRACE(testing::Message() << rc);
    Simulation::Params p;
    p.bc = rc.bc;
    auto cs = std::make_unique<cluster::ClusterSimulation>(
        4, 4, 4, rc.bs, cluster::CartTopology(rc.rx, rc.ry, rc.rz), p);
    tag_cluster(*cs);
    cs->exchange_halos();

    for (int r = 0; r < cs->rank_count(); ++r) {
      Simulation& sim = cs->rank_sim(r);
      const Grid& g = sim.grid();
      const int k = sim.tile_blocks();
      BlockLab oracle;
      oracle.resize(k * rc.bs);
      int cx, cy, cz;
      cs->topology().coords(r, cx, cy, cz);
      const int ox = cx * g.cells_x(), oy = cy * g.cells_y(), oz = cz * g.cells_z();
      // fetch_remote takes global coordinates; the lab hands out rank-local
      // ones. A declined cell is in the rank box, unfolded.
      const auto fetch = [&](int ix, int iy, int iz) {
        Cell c;
        if (cs->fetch_remote(r, ix + ox, iy + oy, iz + oz, c)) return c;
        return g.cell(ix, iy, iz);
      };
      for (int b = 0; b < g.block_count(); ++b) {
        int bx, by, bz;
        g.indexer().coords(b, bx, by, bz);
        SCOPED_TRACE(testing::Message()
                     << "rank " << r << " block (" << bx << "," << by << "," << bz << ")");
        lab_oracle::load_per_cell(oracle, g, bx, by, bz, 1, fetch);
        sim.assemble_lab(b, 0);
        expect_labs_bitwise(oracle, sim.lab(0));
      }
      if (k == 1) continue;
      if (r == 0) ++tiled_cases;
      sim.ensure_thread_workspaces(true);
      for (int t = 0; t < sim.tile_count(); ++t) {
        int tx, ty, tz;
        sim.tile_indexer().coords(t, tx, ty, tz);
        SCOPED_TRACE(testing::Message()
                     << "rank " << r << " tile (" << tx << "," << ty << "," << tz << ")");
        lab_oracle::load_per_cell(oracle, g, k * tx, k * ty, k * tz, k, fetch);
        sim.assemble_tile(t, 0);
        expect_labs_bitwise(oracle, sim.lab(0));
      }
    }
  }
  // Every bs 8 case but 4x1x1 (a 1x4x4-block rank box) tiles.
  EXPECT_EQ(tiled_cases, 7);
}

}  // namespace
}  // namespace mpcf
