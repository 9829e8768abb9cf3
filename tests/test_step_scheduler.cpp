// Tests of the fused per-block step pipeline (DESIGN.md §14): the block
// dependency topology the scheduler seeds its counters from, bitwise
// identity of the fused schedule against the staged oracle across SIMD
// widths / thread counts at the node and cluster layers, the positivity
// guard and SOS reduction folded into the final-stage updates (steady state
// runs no standalone sweep; the folded dt and clamps are bit-equal to the
// staged sweeps'), and UPDATE across widths. Built under MPCF_CHECKED these
// runs additionally exercise the scheduler's counter invariants and the lab
// readset cross-validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "core/simulation.h"
#include "grid/lab.h"
#include "grid/sfc.h"
#include "kernels/rhs.h"
#include "kernels/sos.h"
#include "kernels/update.h"
#include "omp_threads.h"
#include "simd/dispatch.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

using cluster::CartTopology;
using cluster::ClusterSimulation;

// --- helpers --------------------------------------------------------------

Simulation::Params cloud_params(BCType bctype, bool fused,
                                simd::Width w = simd::Width::kAuto) {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(bctype);
  p.fused_step = fused;
  p.width = w;
  return p;
}

void init_cloud(Grid& g) {
  std::vector<Bubble> bubbles{{0.35e-3, 0.4e-3, 0.5e-3, 0.1e-3},
                              {0.65e-3, 0.6e-3, 0.45e-3, 0.12e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
}

// Smooth single-phase acoustic pulse: stays clamp-free, so it can run with
// the positivity guard disabled (exercising the fold-into-final-stage path).
void init_pulse(Grid& g) {
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix) {
        const double x = (ix + 0.5) / g.cells_x();
        const double p =
            materials::kLiquidPressure * (1.0 + 0.01 * std::sin(6.283185307179586 * x));
        Cell& c = g.cell(ix, iy, iz);
        c.rho = static_cast<Real>(materials::kLiquidDensity);
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(G * p + Pi);
      }
}

void expect_grids_bitwise_equal(const Grid& a, const Grid& b, const char* what) {
  ASSERT_EQ(a.cells_x(), b.cells_x());
  ASSERT_EQ(a.cells_y(), b.cells_y());
  ASSERT_EQ(a.cells_z(), b.cells_z());
  for (int iz = 0; iz < a.cells_z(); ++iz)
    for (int iy = 0; iy < a.cells_y(); ++iy)
      for (int ix = 0; ix < a.cells_x(); ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(a.cell(ix, iy, iz).q(q), b.cell(ix, iy, iz).q(q))
              << what << ": mismatch at " << ix << "," << iy << "," << iz << " q=" << q;
}

std::vector<simd::Width> executable_widths() {
  std::vector<simd::Width> ws{simd::Width::kScalar};
  for (simd::Width w : {simd::Width::kW4, simd::Width::kW8})
    if (simd::width_compiled(w) && simd::host_executes(w)) ws.push_back(w);
  return ws;
}

// --- BlockTopology --------------------------------------------------------

TEST(BlockTopology, SelfMembershipSortedAndTransposeConsistent) {
  struct Shape {
    int bx, by, bz;
    BCType bc;
  };
  for (const Shape& s : {Shape{2, 2, 2, BCType::kAbsorbing}, Shape{2, 2, 2, BCType::kPeriodic},
                         Shape{3, 2, 1, BCType::kPeriodic}, Shape{4, 2, 2, BCType::kAbsorbing}}) {
    const BlockIndexer idx(s.bx, s.by, s.bz);
    const BlockTopology topo =
        build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(s.bc));
    ASSERT_EQ(topo.count, idx.count());
    for (int b = 0; b < topo.count; ++b) {
      const auto rs = topo.readset(b);
      const auto cs = topo.consumers(b);
      EXPECT_TRUE(std::is_sorted(rs.begin(), rs.end()));
      EXPECT_TRUE(std::is_sorted(cs.begin(), cs.end()));
      EXPECT_TRUE(std::binary_search(rs.begin(), rs.end(), b)) << "readset self b=" << b;
      EXPECT_TRUE(std::binary_search(cs.begin(), cs.end(), b)) << "consumers self b=" << b;
      // Transpose consistency: r in readset(b) <=> b in consumers(r).
      for (const int r : rs) {
        const auto rc = topo.consumers(r);
        EXPECT_TRUE(std::binary_search(rc.begin(), rc.end(), b))
            << "b=" << b << " reads r=" << r << " but is not r's consumer";
      }
      for (const int c : cs) {
        const auto cr = topo.readset(c);
        EXPECT_TRUE(std::binary_search(cr.begin(), cr.end(), b))
            << "c=" << c << " consumes b=" << b << " but b not in c's readset";
      }
    }
  }
}

TEST(BlockTopology, SingleBlockReadsOnlyItself) {
  for (BCType bc : {BCType::kAbsorbing, BCType::kPeriodic}) {
    const BlockIndexer idx(1, 1, 1);
    const BlockTopology topo = build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(bc));
    ASSERT_EQ(topo.readset(0).size(), 1u);
    EXPECT_EQ(topo.readset(0)[0], 0);
    ASSERT_EQ(topo.consumers(0).size(), 1u);
  }
}

TEST(BlockTopology, PeriodicTwoBlocksPerAxisReadsEveryBlock) {
  // Two blocks per axis under periodic folding: every axis folds to both
  // blocks, so each readset is the full 8-block product.
  const BlockIndexer idx(2, 2, 2);
  const BlockTopology topo =
      build_block_topology(idx, 8, kGhosts, BoundaryConditions::all(BCType::kPeriodic));
  for (int b = 0; b < topo.count; ++b) {
    EXPECT_EQ(topo.readset(b).size(), 8u) << "b=" << b;
    EXPECT_EQ(topo.consumers(b).size(), 8u) << "b=" << b;
  }
}

TEST(BlockTopology, ReadsetCoversActualLabLoads) {
  // Brute force: for every block and every 2x2x2 tile, a real bulk lab
  // assembly's recorded source set must be contained in the readset of the
  // topology over blocks, resp. tiles.
  for (BCType bc : {BCType::kAbsorbing, BCType::kWall, BCType::kPeriodic}) {
    Grid g(4, 2, 2, 8, 1.0);
    const BoundaryConditions bcs = BoundaryConditions::all(bc);
    BlockLab lab;
    lab.resize(16);
    std::vector<int> reads;
    for (const int k : {1, 2}) {
      const BlockIndexer units(4 / k, 2 / k, 2 / k);
      const BlockTopology topo = build_block_topology(units, 8 * k, kGhosts, bcs);
      for (int u = 0; u < units.count(); ++u) {
        int ux, uy, uz;
        units.coords(u, ux, uy, uz);
        lab.load(g, k * ux, k * uy, k * uz, bcs, nullptr, k);
        lab.read_block_set(units, reads, k);
        EXPECT_FALSE(reads.empty());
        const auto rs = topo.readset(u);
        EXPECT_TRUE(std::includes(rs.begin(), rs.end(), reads.begin(), reads.end()))
            << "lab of unit " << u << " (k=" << k << ") read outside its readset (bc="
            << static_cast<int>(bc) << ")";
      }
    }
  }
}

// --- Tiles: the fused step's task unit on bs 8 grids -----------------------

TEST(TileRule, Bs8GridsTileWhenTwoDividesEveryBlockCount) {
  EXPECT_EQ(tile_blocks(8, 12, 12, 12), 2);
  Simulation cloud_job(12, 12, 12, 8);  // bench_suite's cloud_job grid
  EXPECT_EQ(cloud_job.tile_blocks(), 2);
  EXPECT_EQ(cloud_job.tile_count(), 6 * 6 * 6);
  EXPECT_EQ(cloud_job.step_topology().count, 6 * 6 * 6);
  EXPECT_EQ(tile_blocks(8, 2, 4, 4), 2);  // the bs 8 rank boxes of 2x1x1 ranks
  // Stay per block: an odd block count on any axis, and other block sizes
  // (bs 4 included: its rows run the kernels' scalar tail at vec8).
  EXPECT_EQ(tile_blocks(8, 16, 1, 1), 1);
  EXPECT_EQ(tile_blocks(8, 5, 5, 5), 1);
  EXPECT_EQ(tile_blocks(8, 1, 4, 4), 1);
  EXPECT_EQ(tile_blocks(16, 4, 4, 4), 1);
  EXPECT_EQ(tile_blocks(32, 8, 8, 12), 1);
  EXPECT_EQ(tile_blocks(4, 8, 8, 8), 1);
  Simulation line(16, 1, 1, 8);
  EXPECT_EQ(line.tile_blocks(), 1);
  EXPECT_EQ(line.tile_count(), line.grid().block_count());
}

TEST(TileRule, TilesCoverEveryBlockOnce) {
  Simulation sim(4, 6, 2, 8);
  ASSERT_EQ(sim.tile_blocks(), 2);
  std::vector<int> seen(sim.grid().block_count(), 0);
  for (int t = 0; t < sim.tile_count(); ++t) {
    int tx, ty, tz;
    sim.tile_indexer().coords(t, tx, ty, tz);
    const auto ids = sim.tile_block_ids(t);
    ASSERT_EQ(ids.size(), 8u);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      int bx, by, bz;
      sim.grid().indexer().coords(ids[j], bx, by, bz);
      // Tile-local x fastest.
      const int jx = static_cast<int>(j) % 2, jy = static_cast<int>(j) / 2 % 2,
                jz = static_cast<int>(j) / 4;
      EXPECT_EQ(bx, 2 * tx + jx);
      EXPECT_EQ(by, 2 * ty + jy);
      EXPECT_EQ(bz, 2 * tz + jz);
      ++seen[ids[j]];
    }
  }
  for (const int n : seen) EXPECT_EQ(n, 1);
}

TEST(TileRule, FlopsCountTheLabsTheStepEvaluates) {
  Simulation::Params staged_params;
  staged_params.fused_step = false;
  Simulation fused(4, 4, 2, 8), staged(4, 4, 2, 8, staged_params);
  const double nb = 32, per_block = kernels::sos_flops(8) + 3 * kernels::update_flops(8);
  EXPECT_DOUBLE_EQ(fused.flops_per_step(), nb * per_block + 4 * 3 * kernels::rhs_flops(16));
  EXPECT_DOUBLE_EQ(staged.flops_per_step(), nb * per_block + nb * 3 * kernels::rhs_flops(8));
  EXPECT_LT(fused.flops_per_step(), staged.flops_per_step());
}

TEST(FusedStep, TilesBitwiseMatchStagedAcrossBcsWidthsThreadsAndFloors) {
  // 4x4x2 blocks of 8^3 step as 2x2x1 tiles of 16^3; the staged oracle
  // (fused_step = false) evaluates per block. State and dt sequence must
  // agree bit for bit for every BC fold, width, thread count, and with the
  // floors on and off (the guard runs in the final-stage tile updates, and
  // the SOS folds after it).
  BoundaryConditions mixed;
  mixed.face[0] = {BCType::kAbsorbing, BCType::kWall};
  mixed.face[1] = {BCType::kWall, BCType::kWall};
  mixed.face[2] = {BCType::kPeriodic, BCType::kPeriodic};
  const std::vector<BoundaryConditions> bcs = {
      BoundaryConditions::all(BCType::kAbsorbing), BoundaryConditions::all(BCType::kWall),
      BoundaryConditions::all(BCType::kPeriodic), mixed};
  for (std::size_t ib = 0; ib < bcs.size(); ++ib)
    for (const bool floors : {true, false})
      for (const simd::Width w : executable_widths()) {
        const auto run = [&](bool fused, std::vector<double>& dts) {
          Simulation::Params p = cloud_params(BCType::kAbsorbing, fused, w);
          p.bc = bcs[ib];
          if (!floors) p.rho_floor = p.p_floor = -1.0;
          auto sim = std::make_unique<Simulation>(4, 4, 2, 8, p);
          if (floors)
            init_cloud(sim->grid());
          else
            init_pulse(sim->grid());
          for (int s = 0; s < 3; ++s) dts.push_back(sim->step());
          return sim;
        };
        // The oracle, at the ambient thread count: its result does not
        // depend on it.
        std::vector<double> staged_dts;
        const auto staged = run(false, staged_dts);
        for (const int nt : {1, 2, 4}) {
          SCOPED_TRACE(testing::Message() << "bc set " << ib << ", floors " << floors
                                          << ", width " << static_cast<int>(w)
                                          << ", threads " << nt);
          const test::Threads scope(nt);
          std::vector<double> fused_dts;
          const auto fused = run(true, fused_dts);
          ASSERT_EQ(fused->tile_blocks(), 2);
          ASSERT_EQ(fused_dts, staged_dts);
          expect_grids_bitwise_equal(fused->grid(), staged->grid(), "tiles-vs-staged");
        }
      }
}

// --- Fused vs staged: node layer ------------------------------------------

TEST(FusedStep, BitwiseMatchesStagedAcrossWidthsAndThreads) {
  for (const simd::Width w : executable_widths()) {
    for (const int nt : {1, 2, 8}) {
      const test::Threads scope(nt);
      Simulation staged(2, 2, 2, 8, cloud_params(BCType::kAbsorbing, false, w));
      Simulation fused(2, 2, 2, 8, cloud_params(BCType::kAbsorbing, true, w));
      init_cloud(staged.grid());
      init_cloud(fused.grid());
      for (int s = 0; s < 3; ++s) {
        const double dt_staged = staged.step();
        const double dt_fused = fused.step();
        // Folded dt must match the staged sweep bit-for-bit, every step.
        ASSERT_EQ(dt_staged, dt_fused)
            << "dt diverged at step " << s << " width=" << static_cast<int>(w)
            << " threads=" << nt;
      }
      expect_grids_bitwise_equal(staged.grid(), fused.grid(), "fused-vs-staged");
    }
  }
}

TEST(FusedStep, BitwiseMatchesStagedWithoutPositivityGuard) {
  // Floors off => the final-stage update tasks fold the SOS reduction with
  // no guard before it; the pulse IC never needs clamping.
  const test::Threads four(4);
  Simulation::Params ps = cloud_params(BCType::kPeriodic, false);
  Simulation::Params pf = cloud_params(BCType::kPeriodic, true);
  ps.rho_floor = ps.p_floor = -1.0;
  pf.rho_floor = pf.p_floor = -1.0;
  Simulation staged(2, 2, 2, 8, ps), fused(2, 2, 2, 8, pf);
  init_pulse(staged.grid());
  init_pulse(fused.grid());
  for (int s = 0; s < 3; ++s) ASSERT_EQ(staged.step(), fused.step()) << "step " << s;
  expect_grids_bitwise_equal(staged.grid(), fused.grid(), "guard-off");
}

TEST(FusedStep, FoldedGuardClampsWhatTheStagedSweepClamps) {
  // A 10 bar pressure floor, above the bubble cores' mixture pressure,
  // makes the guard clamp cells after every step. The fused step clamps each
  // tile (or block) in its final-stage update: same cells, same bits, same
  // count, and the next dt folds the post-clamp speeds without a standalone
  // SOS sweep.
  struct Shape {
    int bx, by, bz;
  };
  for (const Shape& sh : {Shape{4, 4, 2}, Shape{3, 2, 2}}) {  // tiles, blocks
    const auto run = [&](bool fused, std::vector<double>& dts) {
      Simulation::Params p = cloud_params(BCType::kAbsorbing, fused);
      p.p_floor = 1e6;
      auto sim = std::make_unique<Simulation>(sh.bx, sh.by, sh.bz, 8, p);
      init_cloud(sim->grid());
      for (int s = 0; s < 3; ++s) dts.push_back(sim->step());
      return sim;
    };
    std::vector<double> staged_dts;
    const auto staged = [&] {
      const test::Threads one(1);  // the one-thread reference
      return run(false, staged_dts);
    }();
    ASSERT_GT(staged->params().clamped_cells, 0);
    for (const int nt : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << sh.bx << "x" << sh.by << "x" << sh.bz
                                      << " blocks, threads " << nt);
      const test::Threads scope(nt);
      std::vector<double> fused_dts;
      const auto fused = run(true, fused_dts);
      EXPECT_EQ(fused->tile_blocks(), sh.bx == 4 ? 2 : 1);
      ASSERT_EQ(fused_dts, staged_dts);
      EXPECT_EQ(fused->params().clamped_cells, staged->params().clamped_cells);
      EXPECT_EQ(fused->profile().sos_sweeps, 1);
      expect_grids_bitwise_equal(fused->grid(), staged->grid(), "folded guard");
    }
  }
}

TEST(FusedStep, SteadyStateRunsNoStandaloneSosSweep) {
  Simulation staged(2, 2, 2, 8, cloud_params(BCType::kAbsorbing, false));
  Simulation fused(2, 2, 2, 8, cloud_params(BCType::kAbsorbing, true));
  init_cloud(staged.grid());
  init_cloud(fused.grid());
  for (int s = 0; s < 4; ++s) {
    staged.step();
    fused.step();
  }
  // Fused: only step 0's compute_dt sweeps; every later dt comes from the
  // reduction folded into the step. Staged: one sweep per step.
  EXPECT_EQ(fused.profile().sos_sweeps, 1);
  EXPECT_EQ(staged.profile().sos_sweeps, 4);
}

TEST(FusedStep, FoldedVmaxCacheIsOneShotAndInvalidated) {
  Simulation sim(2, 2, 2, 8, cloud_params(BCType::kAbsorbing, true));
  init_cloud(sim.grid());
  sim.step();  // step 0: sweep for dt, advance folds the next vmax
  ASSERT_EQ(sim.profile().sos_sweeps, 1);

  const double dt_folded = sim.compute_dt();  // consumes the cache
  EXPECT_EQ(sim.profile().sos_sweeps, 1);
  // Cache is one-shot: the second call re-sweeps — and, with the state
  // untouched in between, must reproduce the folded value bit-for-bit.
  const double dt_swept = sim.compute_dt();
  EXPECT_EQ(sim.profile().sos_sweeps, 2);
  EXPECT_EQ(dt_folded, dt_swept);

  // restore_clock (checkpoint restart) drops a pending folded vmax.
  sim.advance(dt_swept);
  sim.restore_clock(sim.time(), sim.step_count());
  (void)sim.compute_dt();
  EXPECT_EQ(sim.profile().sos_sweeps, 3);
}

// --- Fused vs staged: cluster layer ---------------------------------------

TEST(ClusterFused, BitwiseMatchesStagedOracle) {
  // The whole-step graph (one run per step, pack/drain tasks inside) against
  // the staged oracle (exchange_halos, then each rank's staged sweeps):
  // bit-identical states and dt sequences on a periodic 2x2x2 topology,
  // with the floors on (guard in the final-stage updates) and off (the
  // pulse IC never needs clamping).
  const auto run = [](bool fused, bool floors, std::vector<double>& dts) {
    Simulation::Params params = cloud_params(BCType::kPeriodic, fused);
    if (!floors) params.rho_floor = params.p_floor = -1.0;
    Grid global(4, 4, 4, 8, params.extent);
    if (floors)
      init_cloud(global);
    else
      init_pulse(global);
    ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
    cs.scatter(global);
    for (int s = 0; s < 3; ++s) dts.push_back(cs.step());
    EXPECT_EQ(cs.halo_epoch(), 3 * LsRk3::kStages);
    cs.gather(global);
    return global;
  };
  for (const bool floors : {true, false}) {
    // The oracle, at the ambient thread count: its result does not depend
    // on it.
    std::vector<double> staged_dts;
    const Grid staged = run(false, floors, staged_dts);
    for (const int nt : {1, 2, 8}) {
      const test::Threads scope(nt);
      std::vector<double> fused_dts;
      const Grid fused = run(true, floors, fused_dts);
      ASSERT_EQ(fused_dts, staged_dts) << "dt sequence, floors=" << floors << " threads=" << nt;
      expect_grids_bitwise_equal(fused, staged, "fused-vs-staged cluster");
    }
  }
}

TEST(ClusterFused, FoldedGuardClampsWhatTheStagedSweepClamps) {
  // Each rank clamps its tiles in their final-stage updates; the next
  // step's packs then send the clamped state, as after the staged sweep.
  const auto run = [](bool fused, std::vector<double>& dts, long& clamped) {
    Simulation::Params params = cloud_params(BCType::kPeriodic, fused);
    params.p_floor = 1e6;
    Grid global(4, 4, 4, 8, params.extent);
    init_cloud(global);
    ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 1, 1), params);
    cs.scatter(global);
    for (int s = 0; s < 3; ++s) dts.push_back(cs.step());
    clamped = 0;
    for (int r = 0; r < cs.rank_count(); ++r) clamped += cs.rank_sim(r).params().clamped_cells;
    cs.gather(global);
    return global;
  };
  std::vector<double> staged_dts;
  long staged_clamped = 0;
  const Grid staged = [&] {
    const test::Threads one(1);  // the one-thread reference
    return run(false, staged_dts, staged_clamped);
  }();
  ASSERT_GT(staged_clamped, 0);
  for (const int nt : {1, 4}) {
    const test::Threads scope(nt);
    std::vector<double> fused_dts;
    long fused_clamped = 0;
    const Grid fused = run(true, fused_dts, fused_clamped);
    ASSERT_EQ(fused_dts, staged_dts) << "threads=" << nt;
    EXPECT_EQ(fused_clamped, staged_clamped) << "threads=" << nt;
    expect_grids_bitwise_equal(fused, staged, "folded guard, cluster");
  }
}

TEST(ClusterFused, SteadyStateRunsNoStandaloneSosSweep) {
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 1, 1),
                       cloud_params(BCType::kAbsorbing, true));
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  for (int s = 0; s < 3; ++s) cs.step();
  // One sweep per rank at step 0, then every dt comes from the folded
  // reduction (profile() sums the local ranks).
  EXPECT_EQ(cs.profile().sos_sweeps, cs.rank_count());
}

TEST(ClusterFused, ScatterInvalidatesFoldedVmax) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing, true);
  ClusterSimulation cs(2, 2, 2, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  cs.step();
  const long sweeps_after_step = cs.profile().sos_sweeps;
  Grid g(2, 2, 2, 8, params.extent);
  cs.gather(g);
  cs.scatter(g);  // external state injection: folded vmax must be dropped
  (void)cs.compute_dt();
  EXPECT_EQ(cs.profile().sos_sweeps, sweeps_after_step + cs.rank_count());
}

// --- UPDATE across widths -------------------------------------------------

void fill_update_fixture(Block& b) {
  for (int iz = 0; iz < b.size(); ++iz)
    for (int iy = 0; iy < b.size(); ++iy)
      for (int ix = 0; ix < b.size(); ++ix) {
        Cell& c = b(ix, iy, iz);
        Cell& t = b.tmp(ix, iy, iz);
        for (int q = 0; q < kNumQuantities; ++q) {
          c.q(q) = static_cast<Real>(1.0 + 0.01 * ix + 0.02 * iy + 0.03 * iz + q);
          t.q(q) = static_cast<Real>(std::sin(ix + 2 * iy + 3 * iz + q));
        }
      }
}

TEST(UpdateWidths, EveryWidthMatchesScalarBitwise) {
  // A step factor large enough that bdt*tmp is comparable to data: the
  // product's rounding then decides the sum's last bit, so a width that
  // rounds the product separately instead of through one fused
  // multiply-add shows up here (a tiny bdt hides it below the ulp of data).
  const Real bdt = static_cast<Real>(0.37);
  Grid scalar_grid(1, 1, 1, 16);
  Block& scalar = scalar_grid.block(0);
  fill_update_fixture(scalar);
  kernels::update_block(scalar, bdt);
  for (const simd::Width w : executable_widths()) {
    Grid g(1, 1, 1, 16);
    Block& b = g.block(0);
    fill_update_fixture(b);
    kernels::update_block_simd(b, bdt, w);
    for (int iz = 0; iz < 16; ++iz)
      for (int iy = 0; iy < 16; ++iy)
        for (int ix = 0; ix < 16; ++ix)
          for (int q = 0; q < kNumQuantities; ++q)
            ASSERT_EQ(b(ix, iy, iz).q(q), scalar(ix, iy, iz).q(q))
                << "width=" << static_cast<int>(w) << " at " << ix << "," << iy << ","
                << iz << " q=" << q;
  }
}

TEST(UpdateWidths, AutoChoiceIsTheDispatchWidth) {
  // No timing decides the update path: kAuto runs at the dispatch width
  // (the widest executable backend, or the MPCF_SIMD_WIDTH pin).
  const kernels::UpdateChoice c = kernels::update_auto_choice(16, simd::Width::kAuto);
  EXPECT_EQ(c.width, simd::dispatch_width());
  EXPECT_TRUE(simd::host_executes(c.width));
  EXPECT_EQ(c.variant, kernels::UpdateVariant::kRegular);
  EXPECT_EQ(kernels::update_auto_choice(16, simd::Width::kScalar).width,
            simd::Width::kScalar);
}

}  // namespace
}  // namespace mpcf
