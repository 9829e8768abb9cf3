// Focused unit tests of the cluster layer's ghost-resolution path
// (fetch_remote) and the halo exchange message discipline.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster_simulation.h"

namespace mpcf::cluster {
namespace {

/// Deterministically tagged global field on a 32^3 grid split 2x1x1.
/// Heap-allocated: ClusterSimulation is pinned by its comm mutexes.
std::unique_ptr<ClusterSimulation> make_tagged(BCType bctype) {
  Simulation::Params p;
  p.extent = 1.0;
  p.bc = BoundaryConditions::all(bctype);
  auto cs = std::make_unique<ClusterSimulation>(4, 4, 4, 8, CartTopology(2, 1, 1), p);
  for (int r = 0; r < 2; ++r) {
    Grid& g = cs->rank_sim(r).grid();
    int cx, cy, cz;
    cs->topology().coords(r, cx, cy, cz);
    const int ox = cx * g.cells_x();
    for (int iz = 0; iz < g.cells_z(); ++iz)
      for (int iy = 0; iy < g.cells_y(); ++iy)
        for (int ix = 0; ix < g.cells_x(); ++ix) {
          Cell c;
          c.rho = static_cast<Real>(1000 + ox + ix);
          c.ru = static_cast<Real>(iy);
          c.rv = static_cast<Real>(iz);
          c.rw = static_cast<Real>(ox + ix + iy + iz);
          c.E = 1;
          c.G = 1;
          c.P = 0;
          g.cell(ix, iy, iz) = c;
        }
  }
  return cs;
}

TEST(FetchRemote, InRankCoordsAreDeclined) {
  auto cs = make_tagged(BCType::kAbsorbing);
  Cell out;
  // Rank 0 box is x in [0,16): any in-box coordinate goes the local path.
  EXPECT_FALSE(cs->fetch_remote(0, 5, 5, 5, out));
  EXPECT_FALSE(cs->fetch_remote(0, 15, 31, 31, out));
  // Rank 1 box is x in [16,32).
  EXPECT_FALSE(cs->fetch_remote(1, 16, 0, 0, out));
}

TEST(FetchRemote, FaceGhostComesFromNeighborRankAfterExchange) {
  auto cs = make_tagged(BCType::kAbsorbing);
  cs->exchange_halos();
  Cell out;
  // Rank 0 asking for x=16..18: rank 1's first layers.
  for (int l = 0; l < 3; ++l) {
    ASSERT_TRUE(cs->fetch_remote(0, 16 + l, 7, 9, out));
    EXPECT_EQ(out.rho, 1000 + 16 + l);
    EXPECT_EQ(out.ru, 7);
    EXPECT_EQ(out.rv, 9);
  }
  // Rank 1 asking for x=13..15: rank 0's last layers.
  for (int l = 0; l < 3; ++l) {
    ASSERT_TRUE(cs->fetch_remote(1, 13 + l, 2, 4, out));
    EXPECT_EQ(out.rho, 1000 + 13 + l);
  }
}

TEST(FetchRemote, GlobalWallFoldFlipsNormalMomentum) {
  Simulation::Params p;
  p.extent = 1.0;
  p.bc = BoundaryConditions::all(BCType::kAbsorbing);
  p.bc.face[1] = {BCType::kWall, BCType::kWall};
  auto cs = std::make_unique<ClusterSimulation>(4, 4, 4, 8, CartTopology(2, 1, 1), p);
  Grid& g = cs->rank_sim(0).grid();
  Cell c;
  c.rho = 7;
  c.ru = 1;
  c.rv = 2;
  c.rw = 3;
  g.cell(4, 0, 6) = c;
  Cell out;
  // y = -1 mirrors to y = 0 with rv flipped.
  ASSERT_TRUE(cs->fetch_remote(0, 4, -1, 6, out));
  EXPECT_EQ(out.rho, 7);
  EXPECT_EQ(out.ru, 1);
  EXPECT_EQ(out.rv, -2);
  EXPECT_EQ(out.rw, 3);
}

TEST(FetchRemote, PeriodicSelfAxisUsesOwnOppositeSide) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  Cell out;
  // y = -2 wraps to y = 30 (ry == 1: the rank's own high-y layers travel
  // through the self-send slab).
  ASSERT_TRUE(cs->fetch_remote(0, 5, -2, 8, out));
  EXPECT_EQ(out.ru, 30);  // tagged with iy
  // z = 33 wraps to z = 1.
  ASSERT_TRUE(cs->fetch_remote(0, 5, 8, 33, out));
  EXPECT_EQ(out.rv, 1);  // tagged with iz
}

TEST(FetchRemote, PeriodicSplitAxisUsesNeighborSlab) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  Cell out;
  // Rank 0, x = -1 wraps to x = 31 (rank 1's last layer).
  ASSERT_TRUE(cs->fetch_remote(0, -1, 4, 4, out));
  EXPECT_EQ(out.rho, 1000 + 31);
  // Rank 1, x = 32 wraps to x = 0 (rank 0's first layer).
  ASSERT_TRUE(cs->fetch_remote(1, 32, 4, 4, out));
  EXPECT_EQ(out.rho, 1000 + 0);
}

TEST(FetchRemote, CornerFallbackIsFiniteAndHandled) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->exchange_halos();
  Cell out;
  // Two deviating axes (x remote + y out): clamp fallback — never read by
  // the axis-aligned sweeps, but must be handled and physically valid.
  ASSERT_TRUE(cs->fetch_remote(0, 17, -1, 5, out));
  EXPECT_GT(out.rho, 0.0f);
}

TEST(FetchRemote, MissingHaloIsNamedNotClamped) {
  // Before the first exchange no slab has arrived: a halo block's lab and
  // the per-cell oracle must both name the face instead of reading a
  // clamped placeholder, while an interior block's lab (which the step
  // graph runs with the halos still in flight) reads no slab at all.
  auto cs = make_tagged(BCType::kAbsorbing);
  Simulation& sim = cs->rank_sim(0);
  ASSERT_FALSE(cs->halo_blocks(0).empty());
  ASSERT_FALSE(cs->interior_blocks(0).empty());
  const auto expect_named = [](const std::function<void()>& f) {
    try {
      f();
      ADD_FAILURE() << "missing halo slab was not reported";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("rank 0, axis x, side high"), std::string::npos)
          << e.what();
    }
  };
  expect_named([&] { sim.assemble_lab(cs->halo_blocks(0).front(), 0); });
  expect_named([&] {
    Cell out;
    (void)cs->fetch_remote(0, 16, 7, 9, out);
  });
  EXPECT_NO_THROW(sim.assemble_lab(cs->interior_blocks(0).front(), 0));

  cs->exchange_halos();
  EXPECT_NO_THROW(sim.assemble_lab(cs->halo_blocks(0).front(), 0));
}

TEST(ExchangeHalos, AllSixFacesArriveCellByCell) {
  // A tagged 2x2x2 periodic split: every face of every rank has a neighbour
  // (periodic wraps included), and every cell of its slab after the
  // row-wise pack and unpack must be the neighbour's cell at the wrapped
  // global coordinate.
  Simulation::Params p;
  p.bc = BoundaryConditions::all(BCType::kPeriodic);
  auto cs = std::make_unique<ClusterSimulation>(4, 4, 4, 8, CartTopology(2, 2, 2), p);
  const int n = 16, N = 32;  // rank box and global extent in cells
  const auto tag = [](int gx, int gy, int gz) {
    Cell c;
    c.rho = static_cast<Real>(1 + gx + 100 * gy + 10000 * gz);
    c.ru = static_cast<Real>(gx);
    c.rv = static_cast<Real>(gy);
    c.rw = static_cast<Real>(gz);
    c.E = static_cast<Real>(gx * gy + gz);
    c.G = static_cast<Real>(2 + gy);
    c.P = static_cast<Real>(3 + gz);
    return c;
  };
  int origin[8][3];
  for (int r = 0; r < 8; ++r) {
    cs->topology().coords(r, origin[r][0], origin[r][1], origin[r][2]);
    for (int& o : origin[r]) o *= n;
    Grid& g = cs->rank_sim(r).grid();
    for (int iz = 0; iz < n; ++iz)
      for (int iy = 0; iy < n; ++iy)
        for (int ix = 0; ix < n; ++ix)
          g.cell(ix, iy, iz) = tag(origin[r][0] + ix, origin[r][1] + iy, origin[r][2] + iz);
  }
  cs->comm().reset_stats();
  cs->exchange_halos();
  EXPECT_EQ(cs->comm().stats().messages, 48u);

  long checked = 0;
  for (int r = 0; r < 8; ++r)
    for (int axis = 0; axis < 3; ++axis)
      for (int side = 0; side < 2; ++side) {
        SCOPED_TRACE(testing::Message() << "rank " << r << " axis " << axis << " side " << side);
        int dims[3] = {n, n, n};
        dims[axis] = kGhosts;
        for (int k = 0; k < dims[2]; ++k)
          for (int j = 0; j < dims[1]; ++j)
            for (int i = 0; i < dims[0]; ++i) {
              const int ijk[3] = {i, j, k};
              int c[3] = {origin[r][0] + i, origin[r][1] + j, origin[r][2] + k};
              c[axis] = origin[r][axis] + (side == 0 ? -kGhosts : n) + ijk[axis];
              Cell out;
              ASSERT_TRUE(cs->fetch_remote(r, c[0], c[1], c[2], out));
              const Cell want = tag((c[0] + N) % N, (c[1] + N) % N, (c[2] + N) % N);
              for (int q = 0; q < kNumQuantities; ++q)
                ASSERT_EQ(out.q(q), want.q(q)) << "(" << c[0] << "," << c[1] << "," << c[2]
                                               << ") q=" << q;
              ++checked;
            }
      }
  EXPECT_EQ(checked, 8L * 6 * kGhosts * n * n);
}

TEST(ExchangeHalos, MessageCountPerExchange) {
  auto cs = make_tagged(BCType::kPeriodic);
  cs->comm().reset_stats();
  cs->exchange_halos();
  // 2 ranks x 6 faces (periodic: every face has a neighbour, possibly self).
  EXPECT_EQ(cs->comm().stats().messages, 12u);
  auto cs2 = make_tagged(BCType::kAbsorbing);
  cs2->comm().reset_stats();
  cs2->exchange_halos();
  // Absorbing 2x1x1: only the two internal x-faces carry messages.
  EXPECT_EQ(cs2->comm().stats().messages, 2u);
}

}  // namespace
}  // namespace mpcf::cluster
