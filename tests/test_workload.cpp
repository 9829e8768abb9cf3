// Unit tests for the bubble-cloud workload generator and initial conditions.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/grid.h"
#include "ic_oracle.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

TEST(CloudGenerator, ProducesRequestedCount) {
  CloudParams p;
  p.count = 25;
  const auto cloud = generate_cloud(p, 2e-3);
  EXPECT_EQ(cloud.size(), 25u);
}

TEST(CloudGenerator, RadiiWithinPaperBand) {
  CloudParams p;
  p.count = 50;
  const auto cloud = generate_cloud(p, 4e-3);
  for (const Bubble& b : cloud) {
    EXPECT_GE(b.r, p.r_min);
    EXPECT_LE(b.r, p.r_max);
  }
}

TEST(CloudGenerator, CentersInsidePlacementBox) {
  CloudParams p;
  p.count = 30;
  const double extent = 2e-3;
  const auto cloud = generate_cloud(p, extent);
  for (const Bubble& b : cloud)
    for (double c : {b.x, b.y, b.z}) {
      EXPECT_GE(c, p.box_lo * extent);
      EXPECT_LE(c, p.box_hi * extent);
    }
}

TEST(CloudGenerator, NoOverlaps) {
  CloudParams p;
  p.count = 40;
  const auto cloud = generate_cloud(p, 3e-3);
  for (std::size_t i = 0; i < cloud.size(); ++i)
    for (std::size_t j = i + 1; j < cloud.size(); ++j) {
      const double dx = cloud[i].x - cloud[j].x;
      const double dy = cloud[i].y - cloud[j].y;
      const double dz = cloud[i].z - cloud[j].z;
      const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
      EXPECT_GE(d, cloud[i].r + cloud[j].r);
    }
}

TEST(CloudGenerator, DeterministicForSeed) {
  CloudParams p;
  p.count = 10;
  const auto a = generate_cloud(p, 1e-3);
  const auto b = generate_cloud(p, 1e-3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].r, b[i].r);
  }
  p.seed = 43;
  const auto c = generate_cloud(p, 1e-3);
  EXPECT_NE(a[0].x, c[0].x);
}

TEST(CloudGenerator, ThrowsWhenRegionTooDense) {
  CloudParams p;
  p.count = 10000;
  p.max_attempts = 5000;
  p.seed = 77;
  try {
    (void)generate_cloud(p, 1e-3);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    // The message must carry enough to reproduce and diagnose the failure:
    // placed/requested counts, the attempt budget and the seed.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("/10000 bubbles"), std::string::npos) << msg;
    EXPECT_NE(msg.find("5000 attempts"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seed 77"), std::string::npos) << msg;
    EXPECT_NE(msg.find("region too dense"), std::string::npos) << msg;
  }
}

TEST(CloudGenerator, LognormalMedianNearMu) {
  CloudParams p;
  p.count = 300;
  p.box_lo = 0.05;
  p.box_hi = 0.95;
  const auto cloud = generate_cloud(p, 20e-3);
  std::vector<double> radii;
  for (const auto& b : cloud) radii.push_back(b.r);
  std::sort(radii.begin(), radii.end());
  const double median = radii[radii.size() / 2];
  // Median of the clipped lognormal stays near exp(mu) ~ 91 um.
  EXPECT_NEAR(median, std::exp(p.lognormal_mu), 25e-6);
}

TEST(VaporFraction, InsideOutsideAndInterface) {
  std::vector<Bubble> one{Bubble{0.5, 0.5, 0.5, 0.1}};
  EXPECT_NEAR(vapor_fraction(0.5, 0.5, 0.5, one, 0.01), 1.0, 1e-6);
  EXPECT_NEAR(vapor_fraction(0.9, 0.5, 0.5, one, 0.01), 0.0, 1e-6);
  EXPECT_NEAR(vapor_fraction(0.6, 0.5, 0.5, one, 0.01), 0.5, 1e-6);
}

TEST(VaporFraction, TanhIsExactlyOneFromTheSaturationBoundTo1e3) {
  // The culled initial conditions rest on this: past kTanhSaturation a
  // bubble adds exactly +0 to vapor_fraction. The cull cutoff keeps a
  // margin of ~4 smoothing widths over it, and below it tanh is not 1.
  ASSERT_GT(kBubbleCullWidths - kTanhSaturation, 3.9);
  EXPECT_LT(std::tanh(19.0), 1.0);
  long checked = 0;
  for (double x = kTanhSaturation; x < 40.0; x += 1.0 / 65536, ++checked)
    ASSERT_EQ(std::tanh(x), 1.0) << "x = " << x;
  for (double x = 40.0; x <= 1e3; x += 1.0 / 1024, ++checked)
    ASSERT_EQ(std::tanh(x), 1.0) << "x = " << x;
  EXPECT_EQ(std::tanh(1e3), 1.0);
  EXPECT_GT(checked, 2000000);
  // Every cell's tanh term is then exactly +0, which max(alpha, .) drops.
  EXPECT_EQ(0.5 * (1.0 - std::tanh(kTanhSaturation)), 0.0);
  EXPECT_FALSE(std::signbit(0.5 * (1.0 - std::tanh(kTanhSaturation))));
}

/// Bubbles placed on the block lattice of edge `edge` (cells of a domain of
/// x-extent `extent`): centred on a block face, on a block edge and on a
/// block corner, larger than a block, smaller than a cell, and outside the
/// domain near and past the cull cutoff.
std::vector<Bubble> lattice_bubbles(double extent, double edge, double h) {
  const double delta = TwoPhaseIC{}.smoothing_cells * h;
  return {
      Bubble{2 * edge, 1.5 * edge, 1.5 * edge, 0.3 * edge},   // on a block face
      Bubble{edge, edge, 2.5 * edge, 0.45 * edge},            // on a block edge
      Bubble{3 * edge, 3 * edge, 3 * edge, 1.6 * edge},       // corner, r > a block
      Bubble{0.5 * edge, 3.5 * edge, 0.5 * edge, 0.3 * h},    // smaller than a cell
      Bubble{-0.4 * edge, 0.5 * extent, 0.5 * extent, 0.5 * edge},  // straddles x = 0
      // Outside the domain, with (distance to the nearest blocks' cell
      // centres - r) / delta just below, at and just above the cull cutoff.
      Bubble{extent - 0.5 * h + 0.1 * edge + (kBubbleCullWidths - 0.5) * delta,
             0.5 * edge, 0.5 * edge, 0.1 * edge},
      Bubble{0.5 * edge, 0.5 * h - 0.1 * edge - kBubbleCullWidths * delta, 1.5 * edge,
             0.1 * edge},
      Bubble{1.5 * edge, 0.5 * edge, 0.5 * h - 0.1 * edge - (kBubbleCullWidths + 0.5) * delta,
             0.1 * edge},
      Bubble{-10 * extent, -10 * extent, -10 * extent, 0.2 * edge},  // far outside
  };
}

TEST(CloudIC, CulledBlocksEqualThePerCellOracle) {
  // 32^3 to 32x32x64 cells at block sizes 4, 8, 16 and 32; memcmp of every
  // block against vapor_fraction over every bubble at every cell.
  struct Shape {
    int bx, by, bz, bs;
  };
  for (const Shape& s : {Shape{8, 8, 8, 4}, Shape{4, 4, 6, 8}, Shape{2, 3, 2, 16},
                         Shape{1, 1, 2, 32}}) {
    SCOPED_TRACE(testing::Message() << "bs " << s.bs);
    const double extent = 1e-3;
    Grid culled(s.bx, s.by, s.bz, s.bs, extent), oracle(s.bx, s.by, s.bz, s.bs, extent);
    const std::vector<Bubble> bubbles = lattice_bubbles(extent, s.bs * culled.h(), culled.h());
    TwoPhaseIC ic;
    set_cloud_ic(culled, bubbles, ic);
    ic_oracle::set_cloud_ic_per_cell(oracle, bubbles, ic);
    EXPECT_TRUE(ic_oracle::blocks_bitwise_equal(culled, oracle));
    // A wider interface keeps every bubble in more blocks.
    ic.smoothing_cells = 4.0;
    set_cloud_ic(culled, bubbles, ic);
    ic_oracle::set_cloud_ic_per_cell(oracle, bubbles, ic);
    EXPECT_TRUE(ic_oracle::blocks_bitwise_equal(culled, oracle));
  }
}

TEST(CloudIC, CulledBlocksEqualTheOracleAtEveryThreadCount) {
  // The block loop is dynamically scheduled; cells must not depend on it.
  Grid oracle(4, 4, 4, 8, 2e-3);
  CloudParams cp;
  cp.count = 12;
  const std::vector<Bubble> bubbles = generate_cloud(cp, 2e-3);
  ic_oracle::set_cloud_ic_per_cell(oracle, bubbles, TwoPhaseIC{});
  for (const int nt : {1, 3, 4}) {
    const test::Threads scope(nt);
    Grid culled(4, 4, 4, 8, 2e-3);
    set_cloud_ic(culled, bubbles, TwoPhaseIC{});
    EXPECT_TRUE(ic_oracle::blocks_bitwise_equal(culled, oracle)) << nt << " threads";
  }
}

TEST(ShockBubbleIC, CulledBlocksEqualThePerCellOracle) {
  struct Case {
    int bx, by, bz, bs;
    double shock_x;
    Bubble bubble;  // fractions of the extent
  };
  for (const Case& c : {
           Case{8, 8, 8, 4, 0.25, {0.5, 0.5, 0.5, 0.1}},      // on a block corner
           Case{4, 4, 4, 8, 0.3, {0.55, 0.5, 0.25, 0.2}},     // on a block face, r > a block
           Case{2, 2, 2, 16, 0.1, {0.4, 0.5, 0.5, 0.12}},     // the shipped layout
           Case{1, 1, 1, 32, 0.5, {0.95, 0.5, 0.5, 0.15}},    // straddles x = extent
           Case{2, 2, 2, 16, 0.2, {1.8, 0.5, 0.5, 0.1}},      // outside the domain
       }) {
    SCOPED_TRACE(testing::Message() << "bs " << c.bs << ", bubble x " << c.bubble.x);
    ShockBubbleIC ic;
    ic.shock_x = c.shock_x;
    ic.bubble = c.bubble;
    Grid culled(c.bx, c.by, c.bz, c.bs, 1.0), oracle(c.bx, c.by, c.bz, c.bs, 1.0);
    set_shock_bubble_ic(culled, ic);
    ic_oracle::set_shock_bubble_ic_per_cell(oracle, ic);
    EXPECT_TRUE(ic_oracle::blocks_bitwise_equal(culled, oracle));
  }
}

TEST(CloudIC, SetsPureStatesAwayFromInterfaces) {
  Grid g(4, 4, 4, 8, 1e-3);  // 32^3 cells: the tanh interface is ~4.7e-5 wide
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, one, ic);
  // center cell: >99.9% vapor (tanh tail leaves a tiny liquid residue)
  const Cell& cv = g.cell(16, 16, 16);
  EXPECT_NEAR(cv.rho, ic.rho_vapor, 1.0);
  EXPECT_NEAR(cv.G, materials::kVapor.Gamma(), 0.01);
  // corner cell: pure pressurized liquid (13 interface widths away)
  const Cell& cl = g.cell(0, 0, 0);
  EXPECT_NEAR(cl.rho, ic.rho_liquid, 0.1);
  EXPECT_NEAR(cl.G, materials::kLiquid.Gamma(), 1e-3);
  EXPECT_NEAR(cl.P, materials::kLiquid.Pi(), 1e-6 * materials::kLiquid.Pi());
  // quiescent: no momentum anywhere
  EXPECT_EQ(cv.ru, 0.0f);
  EXPECT_EQ(cl.rw, 0.0f);
}

TEST(CloudIC, VaporVolumeMatchesBubbleVolume) {
  Grid g(4, 4, 4, 8, 1e-3);  // 32^3 cells
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.25e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, one, ic);
  double vol = 0;
  const double dV = std::pow(g.h(), 3);
  const double Gl = materials::kLiquid.Gamma(), Gv = materials::kVapor.Gamma();
  for (int iz = 0; iz < 32; ++iz)
    for (int iy = 0; iy < 32; ++iy)
      for (int ix = 0; ix < 32; ++ix) {
        const double alpha = (g.cell(ix, iy, iz).G - Gl) / (Gv - Gl);
        vol += alpha * dV;
      }
  const double analytic = 4.0 / 3.0 * M_PI * std::pow(0.25e-3, 3);
  // The tanh interface smears over ~3 cells; the curvature bias inflates the
  // measured volume by a few percent at this resolution.
  EXPECT_NEAR(vol, analytic, 0.12 * analytic);
}

TEST(ShockBubbleIC, StatesSatisfyRankineHugoniotShape) {
  Grid g(4, 4, 4, 8, 1.0);  // cubic 32^3 domain (bubble coords scale with extent)
  ShockBubbleIC ic;
  ic.shock_x = 0.2;
  ic.bubble = {0.6, 0.5, 0.5, 0.15};
  set_shock_bubble_ic(g, ic);
  // Post-shock region: compressed, moving right.
  const Cell& post = g.cell(2, 16, 16);  // x ~ 0.08
  EXPECT_GT(post.rho, ic.phases.rho_liquid);
  EXPECT_GT(post.ru, 0.0f);
  // Pre-shock liquid at rest, away from the bubble's tanh tail.
  const Cell& pre = g.cell(8, 16, 16);  // x ~ 0.27
  EXPECT_NEAR(pre.rho, ic.phases.rho_liquid, 5.0);
  EXPECT_EQ(pre.ru, 0.0f);
  // Bubble present at its center (mostly vapor).
  const Cell& bub = g.cell(19, 16, 16);  // x ~ 0.61
  EXPECT_LT(bub.rho, 20.0f);
}

}  // namespace
}  // namespace mpcf
