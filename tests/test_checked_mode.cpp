// Tests of the MPCF_CHECKED contract (common/check.h, DESIGN.md §11).
//
// This file compiles in BOTH build flavours and tests the side it was built
// as: in a checked build (-DMPCF_CHECKED=ON) every seeded invariant
// violation — NaN state, negative density, out-of-bounds lab read, torn
// checkpoint — must trap as CheckError with correct provenance; in a
// release build the guards must compile to nothing (conditions not even
// evaluated, accessors still noexcept).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "cluster/sim_comm.h"
#include "common/check.h"
#include "core/simulation.h"
#include "eos/stiffened_gas.h"
#include "grid/block.h"
#include "grid/lab.h"
#include "io/checkpoint.h"
#include "io/fault_injection.h"
#include "io/safe_file.h"

namespace mpcf {
namespace {

Cell liquid_cell(double p = 100e5) {
  const double G = materials::kLiquid.Gamma(), Pi = materials::kLiquid.Pi();
  Cell c;
  c.rho = 1000;
  c.G = static_cast<Real>(G);
  c.P = static_cast<Real>(Pi);
  c.E = static_cast<Real>(G * p + Pi);
  return c;
}

Simulation make_uniform_sim() {
  Simulation::Params prm;
  prm.rho_floor = 0;  // the guard under test must see the raw state,
  prm.p_floor = 0;    // not the reproduction-scale clamp's cleaned one
  Simulation sim(1, 1, 1, 8, prm);
  for (int iz = 0; iz < 8; ++iz)
    for (int iy = 0; iy < 8; ++iy)
      for (int ix = 0; ix < 8; ++ix) sim.grid().cell(ix, iy, iz) = liquid_cell();
  return sim;
}

#if MPCF_CHECKED

static_assert(check::kEnabled, "built with -DMPCF_CHECKED=ON");
static_assert(!noexcept(std::declval<Block&>()(0, 0, 0)),
              "checked accessors may throw");

/// Pulls "block B, cell (X,Y,Z), quantity Q" provenance out of a CheckError
/// message; returns false if the shape is missing.
bool parse_provenance(const std::string& msg, int* block, int* cx, int* cy, int* cz,
                      int* q) {
  const std::size_t p = msg.find("block ");
  if (p == std::string::npos) return false;
  return std::sscanf(msg.c_str() + p, "block %d, cell (%d,%d,%d), quantity %d", block,
                     cx, cy, cz, q) == 5;
}

TEST(CheckedMode, BlockOutOfBoundsTraps) {
  Grid g(1, 1, 1, 8);
  Block& b = g.block(0);
  EXPECT_THROW((void)b(8, 0, 0), CheckError);
  EXPECT_THROW((void)b(0, -1, 0), CheckError);
  EXPECT_THROW((void)b.tmp(0, 0, 8), CheckError);
  EXPECT_NO_THROW((void)b(7, 7, 7));
}

TEST(CheckedMode, LabOutOfBoundsReadTraps) {
  BlockLab lab;
  lab.resize(8);  // ghosts = 3: valid coords are [-3, 11)
  EXPECT_NO_THROW((void)lab(0, -3, 0, 0));
  EXPECT_NO_THROW((void)lab(kNumQuantities - 1, 10, 10, 10));
  EXPECT_THROW((void)lab(0, -4, 0, 0), CheckError);
  EXPECT_THROW((void)lab(0, 0, 11, 0), CheckError);
  EXPECT_THROW((void)lab(kNumQuantities, 0, 0, 0), CheckError);
  try {
    (void)lab(0, 0, 0, 12);
    FAIL() << "out-of-bounds lab read did not trap";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("BlockLab cell (0,0,12)"), std::string::npos)
        << e.what();
  }
}

TEST(CheckedMode, GridOutOfBoundsTraps) {
  Grid g(2, 2, 2, 8);
  EXPECT_THROW((void)g.block(8), CheckError);
  EXPECT_THROW((void)g.block(-1), CheckError);
  EXPECT_THROW((void)g.cell(16, 0, 0), CheckError);
  EXPECT_NO_THROW((void)g.cell(15, 15, 15));
}

TEST(CheckedMode, SeededNaNTrapsWithProvenanceAndRepro) {
  Simulation sim = make_uniform_sim();
  sim.grid().cell(3, 4, 5).E = std::numeric_limits<Real>::quiet_NaN();
  try {
    sim.advance(1e-9);
    FAIL() << "NaN state did not trap";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("post-rhs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("step 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("RK stage 0"), std::string::npos) << msg;
    int b = -1, cx = -1, cy = -1, cz = -1, q = -1;
    ASSERT_TRUE(parse_provenance(msg, &b, &cx, &cy, &cz, &q)) << msg;
    EXPECT_EQ(b, 0);
    // The NaN smears only along directional sweeps, so the first offender
    // must lie within the WENO5 stencil radius of the seed.
    EXPECT_LE(std::abs(cx - 3), 3);
    EXPECT_LE(std::abs(cy - 4), 3);
    EXPECT_LE(std::abs(cz - 5), 3);
    // Provenance must be self-consistent: the named quantity of the named
    // cell in the named array really is non-finite.
    ASSERT_GE(q, 0);
    ASSERT_LT(q, kNumQuantities);
    EXPECT_FALSE(std::isfinite(sim.grid().block(b).tmp(cx, cy, cz).q(q))) << msg;

    // The mini-state repro landed and carries the same provenance header.
    const std::size_t rp = msg.find("repro ");
    ASSERT_NE(rp, std::string::npos) << msg;
    const std::string repro = msg.substr(rp + 6);
    const auto bytes = io::read_file(repro);
    ASSERT_GE(bytes.size(), 8u + 5 * 4 + 8 + 8);
    EXPECT_EQ(std::memcmp(bytes.data(), "MPCFRPR1", 8), 0);
    io::Cursor cur(bytes);
    cur.skip(8);
    EXPECT_EQ(cur.get<std::int32_t>(), b);      // block
    EXPECT_EQ(cur.get<std::int32_t>(), 8);      // bs
    EXPECT_EQ(cur.get<std::int32_t>(), 0);      // stage
    EXPECT_EQ(cur.get<std::int32_t>(), 0);      // phase: 0 = rhs
    EXPECT_EQ(cur.get<std::int32_t>(), q);      // quantity
    EXPECT_EQ(cur.get<std::int64_t>(), 0);      // step
    std::remove(repro.c_str());
  }
}

TEST(CheckedMode, SeededNegativeDensityTrapsAtExactCell) {
  Simulation sim = make_uniform_sim();
  sim.grid().cell(2, 6, 1).rho = -1000;  // finite, so RHS stays finite and
                                         // the post-update rho>0 guard fires
  try {
    sim.advance(1e-9);
    FAIL() << "negative density did not trap";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("post-update"), std::string::npos) << msg;
    int b = -1, cx = -1, cy = -1, cz = -1, q = -1;
    ASSERT_TRUE(parse_provenance(msg, &b, &cx, &cy, &cz, &q)) << msg;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(cx, 2);
    EXPECT_EQ(cy, 6);
    EXPECT_EQ(cz, 1);
    EXPECT_EQ(q, Q_RHO);
    const std::size_t rp = msg.find("repro ");
    ASSERT_NE(rp, std::string::npos);
    std::remove(msg.substr(rp + 6).c_str());
  }
}

TEST(CheckedMode, TornCheckpointCaughtAtSaveByReadback) {
  Simulation sim = make_uniform_sim();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt_checked.bin";

  // Single-bit rot landing inside the committed header region: the release
  // build only notices at the next restart; the checked build refuses the
  // save itself.
  io::fault::Plan flip;
  flip.kind = io::fault::Kind::kBitFlip;
  flip.byte = 20;
  flip.bit = 3;
  io::fault::arm(flip);
  EXPECT_THROW(io::save_checkpoint(path, sim), CheckError);
  io::fault::disarm();

  // Torn tail (committed file cut short) is caught by the size readback.
  io::fault::Plan trunc;
  trunc.kind = io::fault::Kind::kTruncate;
  trunc.byte = 40;
  io::fault::arm(trunc);
  EXPECT_THROW(io::save_checkpoint(path, sim), CheckError);
  io::fault::disarm();

  // Healthy hardware: verify-after-write passes and the file round-trips.
  EXPECT_NO_THROW(io::save_checkpoint(path, sim));
  Simulation sim2 = make_uniform_sim();
  EXPECT_NO_THROW(io::load_checkpoint(path, sim2));
  std::remove(path.c_str());
}

TEST(CheckedMode, SimCommRankRangeTraps) {
  cluster::SimComm comm(2);
  comm.send(0, 1, 7, {1.0f, 2.0f});
  EXPECT_THROW((void)comm.recv(5, 0, 7), CheckError);
  EXPECT_THROW((void)comm.recv(0, -1, 7), CheckError);
  EXPECT_NO_THROW((void)comm.recv(0, 1, 7));
}

TEST(CheckedMode, SimCommHaloEpochRegressionTraps) {
  // Halo tags carry the RK stage epoch (transport.h); within one
  // (src,dst,face) flow the epoch must never step backwards — a regression
  // would alias a stale slab from a previous stage into the current one.
  cluster::SimComm comm(2);
  comm.send(0, 1, cluster::halo_tag(0, 0, 2), {1.0f});
  (void)comm.recv(0, 1, cluster::halo_tag(0, 0, 2));
  EXPECT_THROW(comm.send(0, 1, cluster::halo_tag(0, 0, 1), {2.0f}), CheckError);
  // Same-epoch traffic and forward progress stay legal, as does the same
  // regressed epoch on a DIFFERENT face (flows are tracked independently).
  EXPECT_NO_THROW(comm.send(0, 1, cluster::halo_tag(0, 0, 2), {3.0f}));
  EXPECT_NO_THROW(comm.send(0, 1, cluster::halo_tag(0, 0, 3), {4.0f}));
  EXPECT_NO_THROW(comm.send(0, 1, cluster::halo_tag(1, 0, 1), {5.0f}));

  // Sends and receives are tracked separately: the whole-step graph lets a
  // rank post stage e+1 before its neighbour has received stage e, so
  // send e, send e+1, recv e is legal...
  comm.send(0, 1, cluster::halo_tag(1, 1, 5), {6.0f});
  comm.send(0, 1, cluster::halo_tag(1, 1, 6), {7.0f});
  EXPECT_NO_THROW((void)comm.recv(0, 1, cluster::halo_tag(1, 1, 5)));
  EXPECT_NO_THROW((void)comm.recv(0, 1, cluster::halo_tag(1, 1, 6)));
  // ...but a regression on the receive side still traps, with monotone
  // sends.
  comm.send(0, 1, cluster::halo_tag(2, 0, 5), {8.0f});
  comm.send(0, 1, cluster::halo_tag(2, 0, 6), {9.0f});
  EXPECT_NO_THROW((void)comm.recv(0, 1, cluster::halo_tag(2, 0, 6)));
  EXPECT_THROW((void)comm.recv(0, 1, cluster::halo_tag(2, 0, 5)), CheckError);
}

#else  // !MPCF_CHECKED — the guards must cost nothing

static_assert(!check::kEnabled, "plain builds must not enable checks");
// Symbol-level proof the checking layer is compiled out: hot accessors keep
// their release signature (noexcept), which they could not if MPCF_CHECK
// could throw inside them.
static_assert(noexcept(std::declval<Block&>()(0, 0, 0)));
static_assert(noexcept(std::declval<const Block&>().tmp(0, 0, 0)));
static_assert(noexcept(std::declval<const BlockLab&>().offset(0, 0, 0)));
static_assert(noexcept(std::declval<BlockLab&>()(0, 0, 0, 0)));
static_assert(noexcept(std::declval<Grid&>().block(0)));
static_assert(noexcept(std::declval<const Grid&>().cell(0, 0, 0)));

TEST(ReleaseMode, CheckConditionIsNotEvaluated) {
  bool evaluated = false;
  MPCF_CHECK((evaluated = true), "must compile to ((void)0) in release");
  EXPECT_FALSE(evaluated);
}

TEST(ReleaseMode, AdvanceDoesNotScanState) {
  // A NaN seeded into a floor-disabled simulation must sail through advance
  // without any CheckError: the verification pass does not exist here.
  Simulation sim = make_uniform_sim();
  sim.grid().cell(3, 4, 5).E = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_NO_THROW(sim.advance(1e-9));
}

#endif  // MPCF_CHECKED

}  // namespace
}  // namespace mpcf
