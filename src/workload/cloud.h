// Workload generation: spherical bubble clouds with lognormally distributed
// radii (paper Section 7: radii sampled from a lognormal distribution [30]
// in the 50-200 micron range, clouds of 50-100 bubbles per 1024^3 simulation
// unit), plus the pressurized-liquid initial condition and a shock-bubble
// configuration (the validation flow of the software's earlier version,
// ref [34]).
#pragma once

#include <cstdint>
#include <vector>

#include "eos/stiffened_gas.h"
#include "grid/grid.h"

namespace mpcf {

struct Bubble {
  double x, y, z;  ///< center [m]
  double r;        ///< radius [m]
};

struct CloudParams {
  int count = 10;            ///< number of bubbles
  double r_min = 50e-6;      ///< smallest admissible radius [m]
  double r_max = 200e-6;     ///< largest admissible radius [m]
  double lognormal_mu = -9.3;     ///< mu of ln r  (exp(-9.3) ~ 91 um)
  double lognormal_sigma = 0.35;  ///< sigma of ln r
  double box_lo = 0.25;      ///< cloud region, fraction of extent
  double box_hi = 0.75;
  double separation = 1.05;  ///< min center distance in units of r1+r2
  std::uint64_t seed = 42;
  int max_attempts = 200000;
};

/// Generates a non-overlapping bubble cloud inside the cube
/// [box_lo, box_hi]^3 * extent. Throws if placement fails.
[[nodiscard]] std::vector<Bubble> generate_cloud(const CloudParams& params, double extent);

struct TwoPhaseIC {
  StiffenedGas vapor = materials::kVapor;
  StiffenedGas liquid = materials::kLiquid;
  double rho_vapor = materials::kVaporDensity;
  double rho_liquid = materials::kLiquidDensity;
  double p_vapor = materials::kVaporPressure;
  double p_liquid = materials::kLiquidPressure;
  double smoothing_cells = 1.5;  ///< interface smearing width in cells
};

/// std::tanh(x) rounds to exactly 1.0 for every double x >= kTanhSaturation,
/// so a bubble adds exactly +0 to vapor_fraction at every point where
/// (dist - r) / delta reaches it.
inline constexpr double kTanhSaturation = 19.0616;

/// The initial conditions skip a bubble for a whole block when (distance
/// from its centre to the block's box of cell centres - r) / delta reaches
/// this. Its margin over kTanhSaturation, about 4 smoothing widths, covers
/// the rounding of that distance many times over.
inline constexpr double kBubbleCullWidths = 23.0;

/// Sets the cloud-collapse initial condition: quiescent pressurized liquid
/// with vapor bubbles, diffuse interfaces of a few cells. One parallel loop
/// over blocks; each block evaluates vapor_fraction over the bubbles it
/// does not cull (kBubbleCullWidths), which keeps every cell's bits.
void set_cloud_ic(Grid& grid, const std::vector<Bubble>& bubbles, const TwoPhaseIC& ic);

struct ShockBubbleIC {
  TwoPhaseIC phases;
  double shock_x = 0.1;      ///< shock plane position, fraction of extent
  double p_ratio = 10.0;     ///< post-shock/pre-shock pressure ratio
  Bubble bubble{0.4, 0.5, 0.5, 0.1};  ///< in fractions of extent
};

/// Planar shock in liquid travelling toward a single gas bubble (per block,
/// like set_cloud_ic).
void set_shock_bubble_ic(Grid& grid, const ShockBubbleIC& ic);

/// Vapor volume fraction at a point for a given bubble set (diffuse
/// interface of width `delta`); exposed for tests.
[[nodiscard]] double vapor_fraction(double x, double y, double z,
                                    const std::vector<Bubble>& bubbles, double delta);

/// The quiescent mixture cell of vapor fraction `alpha` whose liquid phase
/// sits at `p_liquid` (the cell set_cloud_ic writes).
[[nodiscard]] Cell mixture_cell(double alpha, const TwoPhaseIC& ic, double p_liquid);

}  // namespace mpcf
