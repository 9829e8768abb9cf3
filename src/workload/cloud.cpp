#include "workload/cloud.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/error.h"

namespace mpcf {

std::vector<Bubble> generate_cloud(const CloudParams& params, double extent) {
  require(params.count > 0, "generate_cloud: count must be positive");
  require(params.box_lo < params.box_hi, "generate_cloud: empty placement box");

  std::mt19937_64 rng(params.seed);
  std::uniform_real_distribution<double> upos(params.box_lo * extent, params.box_hi * extent);
  std::lognormal_distribution<double> urad(params.lognormal_mu, params.lognormal_sigma);

  std::vector<Bubble> cloud;
  cloud.reserve(params.count);
  int attempts = 0;
  while (static_cast<int>(cloud.size()) < params.count) {
    if (++attempts > params.max_attempts)
      throw PreconditionError("generate_cloud: placed " +
                              std::to_string(cloud.size()) + "/" +
                              std::to_string(params.count) + " bubbles after " +
                              std::to_string(params.max_attempts) +
                              " attempts (seed " + std::to_string(params.seed) +
                              ", region too dense)");
    Bubble b{upos(rng), upos(rng), upos(rng), 0.0};
    // Clipped lognormal radius (paper: 50-200 micron band).
    double r = urad(rng);
    if (r < params.r_min || r > params.r_max) continue;
    b.r = r;

    bool ok = true;
    for (const Bubble& o : cloud) {
      const double dx = b.x - o.x, dy = b.y - o.y, dz = b.z - o.z;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double dmin = params.separation * (b.r + o.r);
      if (d2 < dmin * dmin) {
        ok = false;
        break;
      }
    }
    if (ok) cloud.push_back(b);
  }
  return cloud;
}

double vapor_fraction(double x, double y, double z, const std::vector<Bubble>& bubbles,
                      double delta) {
  // Diffuse-interface indicator: 1 inside a bubble, 0 outside, smooth
  // transition of width ~delta. Bubbles do not overlap, so taking the max
  // over bubbles is exact.
  double alpha = 0.0;
  for (const Bubble& b : bubbles) {
    const double dx = x - b.x, dy = y - b.y, dz = z - b.z;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    const double a = 0.5 * (1.0 - std::tanh((dist - b.r) / delta));
    alpha = std::max(alpha, a);
  }
  return alpha;
}

Cell mixture_cell(double alpha, const TwoPhaseIC& ic, double p_liquid) {
  const double rho = alpha * ic.rho_vapor + (1.0 - alpha) * ic.rho_liquid;
  const double p = alpha * ic.p_vapor + (1.0 - alpha) * p_liquid;
  const auto mix = eos::mix(ic.vapor, ic.liquid, alpha);
  Cell c;
  c.rho = static_cast<Real>(rho);
  c.ru = c.rv = c.rw = 0;
  c.G = static_cast<Real>(mix.G);
  c.P = static_cast<Real>(mix.Pi);
  c.E = static_cast<Real>(mix.G * p + mix.Pi);  // quiescent: no kinetic energy
  return c;
}

namespace {

/// The bubbles of `bubbles` that block (bx, by, bz) does not cull, in
/// order: those with (distance from the centre to the block's box of cell
/// centres - r) / delta below kBubbleCullWidths. Every cell centre lies at
/// least that far from a culled bubble, so its tanh is exactly 1.0 there
/// and it could only have added max(alpha, +0) to vapor_fraction.
std::vector<Bubble> bubbles_near_block(const Grid& grid, int bx, int by, int bz,
                                       const std::vector<Bubble>& bubbles, double delta) {
  const int bs = grid.block_size();
  const int first[3] = {bx * bs, by * bs, bz * bs};
  std::vector<Bubble> near;
  for (const Bubble& b : bubbles) {
    const double centre[3] = {b.x, b.y, b.z};
    double d2 = 0;
    for (int a = 0; a < 3; ++a) {
      const double lo = grid.cell_center(first[a]), hi = grid.cell_center(first[a] + bs - 1);
      const double d = std::max({lo - centre[a], 0.0, centre[a] - hi});
      d2 += d * d;
    }
    // Written so that only a proven saturation culls (a NaN keeps the bubble).
    if (!((std::sqrt(d2) - b.r) / delta >= kBubbleCullWidths)) near.push_back(b);
  }
  return near;
}

/// Sets every cell of `grid` to cell_at(alpha, x), alpha = vapor_fraction
/// of `bubbles` at the cell centre, in one parallel loop over blocks; a
/// block that culls every bubble gets alpha = 0 without evaluating it.
template <class CellAt>
void set_bubble_ic(Grid& grid, const std::vector<Bubble>& bubbles, double delta,
                   const CellAt& cell_at) {
  const int bs = grid.block_size();
  // Dynamic: blocks near a bubble cost far more than the liquid far field.
#pragma omp parallel for schedule(dynamic, 1)
  for (int b = 0; b < grid.block_count(); ++b) {
    int bx = 0, by = 0, bz = 0;
    grid.indexer().coords(b, bx, by, bz);
    const std::vector<Bubble> near = bubbles_near_block(grid, bx, by, bz, bubbles, delta);
    Block& blk = grid.block(b);
    for (int iz = 0; iz < bs; ++iz) {
      const double z = grid.cell_center(bz * bs + iz);
      for (int iy = 0; iy < bs; ++iy) {
        const double y = grid.cell_center(by * bs + iy);
        for (int ix = 0; ix < bs; ++ix) {
          const double x = grid.cell_center(bx * bs + ix);
          const double alpha = near.empty() ? 0.0 : vapor_fraction(x, y, z, near, delta);
          blk(ix, iy, iz) = cell_at(alpha, x);
        }
      }
    }
  }
}

}  // namespace

void set_cloud_ic(Grid& grid, const std::vector<Bubble>& bubbles, const TwoPhaseIC& ic) {
  const Cell liquid = mixture_cell(0.0, ic, ic.p_liquid);
  set_bubble_ic(grid, bubbles, ic.smoothing_cells * grid.h(), [&](double alpha, double) {
    return alpha == 0.0 ? liquid : mixture_cell(alpha, ic, ic.p_liquid);
  });
}

void set_shock_bubble_ic(Grid& grid, const ShockBubbleIC& ic) {
  const double extent = grid.h() * grid.cells_x();
  const std::vector<Bubble> one{Bubble{ic.bubble.x * extent, ic.bubble.y * extent,
                                       ic.bubble.z * extent, ic.bubble.r * extent}};
  const double xs = ic.shock_x * extent;

  // Post-shock liquid state from the stiffened-gas Rankine-Hugoniot
  // relations for a right-running shock into fluid at rest.
  const StiffenedGas& l = ic.phases.liquid;
  const double p1 = ic.phases.p_liquid;
  const double p2 = p1 * ic.p_ratio;
  const double r1 = ic.phases.rho_liquid;
  const double g = l.gamma;
  const double pc = l.pc;
  // Density ratio across the shock (stiffened gas: shift pressures by pc).
  const double ph1 = p1 + pc, ph2 = p2 + pc;
  const double r2 = r1 * ((g + 1.0) * ph2 + (g - 1.0) * ph1) /
                    ((g - 1.0) * ph2 + (g + 1.0) * ph1);
  // Shock speed and post-shock particle velocity.
  const double us = std::sqrt(ph1 / r1 * ((g + 1.0) / 2.0 * ph2 / ph1 + (g - 1.0) / 2.0));
  const double u2 = us * (1.0 - r1 / r2);

  // Pure post-shock liquid column.
  Cell post;
  post.rho = static_cast<Real>(r2);
  post.ru = static_cast<Real>(r2 * u2);
  const double G = l.Gamma(), Pi = l.Pi();
  post.G = static_cast<Real>(G);
  post.P = static_cast<Real>(Pi);
  post.E = static_cast<Real>(G * p2 + Pi + 0.5 * r2 * u2 * u2);

  const Cell liquid = mixture_cell(0.0, ic.phases, p1);
  set_bubble_ic(grid, one, ic.phases.smoothing_cells * grid.h(), [&](double alpha, double x) {
    if (x < xs && alpha < 0.5) return post;
    return alpha == 0.0 ? liquid : mixture_cell(alpha, ic.phases, p1);
  });
}

}  // namespace mpcf
