// 1-D shock-tube validation cases (Sod et al.): two constant states
// separated by a diaphragm, run as a 3-D grid carrying a 1-D profile along
// x. The exact Riemann solution (physics/riemann_exact.h) is the reference;
// the finalize hook reports the L1 density error against it, and
// tests/test_scenario.cpp enforces the bound.
//
// States are dimensionless (classic Sod: (1, 0, 1) | (0.125, 0, 0.1),
// gamma = 1.4), so the scenario disables the SI-tuned positivity floors by
// default — at Sod scale the default p_floor of 1 Pa would clamp the whole
// domain.
#include <cmath>

#include "io/jsonl.h"
#include "physics/riemann_exact.h"
#include "scenario/scenario.h"

namespace mpcf::scenario {
namespace {

struct TubeSetup {
  physics::RiemannState left, right;
  double gamma, pc, diaphragm;
};

TubeSetup read_tube(const Config& cfg) {
  TubeSetup t;
  t.left = {cfg.get_double("shock_tube", "rho_l", 1.0),
            cfg.get_double("shock_tube", "u_l", 0.0),
            cfg.get_double("shock_tube", "p_l", 1.0)};
  t.right = {cfg.get_double("shock_tube", "rho_r", 0.125),
             cfg.get_double("shock_tube", "u_r", 0.0),
             cfg.get_double("shock_tube", "p_r", 0.1)};
  t.gamma = cfg.get_double("shock_tube", "gamma", 1.4);
  t.pc = cfg.get_double("shock_tube", "pc", 0.0);
  t.diaphragm = cfg.get_double("shock_tube", "diaphragm", 0.5);
  if (t.gamma <= 1.0) throw ConfigError(cfg.name() + ": [shock_tube] gamma must exceed 1");
  if (t.diaphragm <= 0.0 || t.diaphragm >= 1.0)
    throw ConfigError(cfg.name() + ": [shock_tube] diaphragm must be in (0, 1)");
  return t;
}

void set_tube_ic(Grid& grid, const TubeSetup& t, double extent) {
  const double G = 1.0 / (t.gamma - 1.0);
  const double Pi = t.gamma * t.pc / (t.gamma - 1.0);
  const double xs = t.diaphragm * extent;
  for (int iz = 0; iz < grid.cells_z(); ++iz)
    for (int iy = 0; iy < grid.cells_y(); ++iy)
      for (int ix = 0; ix < grid.cells_x(); ++ix) {
        const physics::RiemannState& s = grid.cell_center(ix) < xs ? t.left : t.right;
        Cell c;
        c.rho = static_cast<Real>(s.rho);
        c.ru = static_cast<Real>(s.rho * s.u);
        c.rv = c.rw = 0;
        c.G = static_cast<Real>(G);
        c.P = static_cast<Real>(Pi);
        c.E = static_cast<Real>(G * s.p + Pi + 0.5 * s.rho * s.u * s.u);
        grid.cell(ix, iy, iz) = c;
      }
}

/// Mean absolute density error along the x centerline against the exact
/// self-similar solution at time t (shared with tests/test_scenario.cpp).
double l1_density_error(const Grid& grid, const TubeSetup& t, double extent, double time) {
  const physics::ExactRiemann exact(t.left, t.right, t.gamma, t.pc);
  const int iy = grid.cells_y() / 2, iz = grid.cells_z() / 2;
  const double xs = t.diaphragm * extent;
  double err = 0;
  for (int ix = 0; ix < grid.cells_x(); ++ix) {
    const double x = grid.cell_center(ix);
    const double rho_exact =
        time > 0 ? exact.sample((x - xs) / time).rho
                 : (x < xs ? t.left.rho : t.right.rho);
    err += std::abs(static_cast<double>(grid.cell(ix, iy, iz).rho) - rho_exact);
  }
  return err / grid.cells_x();
}

}  // namespace

ScenarioInstance build_shock_tube(const Config& cfg) {
  const TubeSetup tube = read_tube(cfg);

  Simulation::Params defaults;
  defaults.extent = 1.0;
  defaults.rho_floor = 0;  // dimensionless states: SI floors would clamp them
  defaults.p_floor = 0;
  defaults.bc.face[1] = {BCType::kPeriodic, BCType::kPeriodic};
  defaults.bc.face[2] = {BCType::kPeriodic, BCType::kPeriodic};
  const Simulation::Params params = read_sim_params(cfg, defaults);
  const GridShape g = read_grid(cfg, {16, 1, 1, 8});

  ScenarioInstance inst;
  inst.sim = std::make_unique<Simulation>(g.bx, g.by, g.bz, g.bs, params);
  set_tube_ic(inst.sim->grid(), tube, params.extent);
  // Single-phase: pick an alpha inversion pair that reports zero vapor.
  inst.G_liquid = 1.0 / (tube.gamma - 1.0);
  inst.G_vapor = inst.G_liquid + 1.0;
  inst.stop.max_time = cfg.get_double("shock_tube", "t_end", 0.2);

  const double extent = params.extent;
  inst.finalize = [tube, extent](Simulation& sim, const RunContext& ctx) {
    if (!ctx.progress) return;
    const physics::ExactRiemann exact(tube.left, tube.right, tube.gamma, tube.pc);
    ctx.progress->write(io::JsonObject()
                            .add("event", "summary")
                            .add("t_end_s", sim.time())
                            .add("l1_rho", l1_density_error(sim.grid(), tube, extent,
                                                            sim.time()))
                            .add("p_star", exact.p_star())
                            .add("u_star", exact.u_star()));
  };
  return inst;
}

double shock_tube_l1_error(const Config& cfg, const Simulation& sim) {
  const TubeSetup tube = read_tube(cfg);
  const double extent = cfg.get_double("simulation", "extent", 1.0);
  return l1_density_error(sim.grid(), tube, extent, sim.time());
}

}  // namespace mpcf::scenario
