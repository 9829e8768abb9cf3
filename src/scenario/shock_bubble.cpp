// Shock-bubble interaction — the validation flow of the software's earlier
// version (paper refs [33, 34]), ported from the retired
// examples/shock_bubble.cpp binary: a planar shock in liquid hits a single
// gas bubble, driving an asymmetric collapse with a re-entrant jet. The
// per-step hook streams the vapor volume and alpha-weighted centroid (the
// jet shows up as the centroid accelerating downstream while the volume
// collapses).
#include <algorithm>
#include <memory>

#include "io/jsonl.h"
#include "scenario/scenario.h"

namespace mpcf::scenario {

ScenarioInstance build_shock_bubble(const Config& cfg) {
  Simulation::Params defaults;
  defaults.extent = 1e-3;
  const Simulation::Params params = read_sim_params(cfg, defaults);
  const GridShape g = read_grid(cfg, {8, 4, 4, 8});

  ShockBubbleIC ic;
  ic.phases = read_materials(cfg);
  ic.shock_x = cfg.get_double("shock_bubble", "shock_x", 0.15);
  ic.p_ratio = cfg.get_double("shock_bubble", "p_ratio", 10.0);
  ic.bubble.x = cfg.get_double("shock_bubble", "bubble_x", 0.45);
  ic.bubble.y = cfg.get_double("shock_bubble", "bubble_y", 0.5);
  ic.bubble.z = cfg.get_double("shock_bubble", "bubble_z", 0.5);
  ic.bubble.r = cfg.get_double("shock_bubble", "bubble_r", 0.12);
  if (ic.p_ratio <= 1.0)
    throw ConfigError(cfg.name() + ": [shock_bubble] p_ratio must exceed 1");
  if (ic.bubble.r <= 0)
    throw ConfigError(cfg.name() + ": [shock_bubble] bubble_r must be positive");

  ScenarioInstance inst;
  inst.sim = std::make_unique<Simulation>(g.bx, g.by, g.bz, g.bs, params);
  set_shock_bubble_ic(inst.sim->grid(), ic);
  inst.G_vapor = ic.phases.vapor.Gamma();
  inst.G_liquid = ic.phases.liquid.Gamma();
  inst.stop.max_steps = 300;

  const int every = cfg.get_int("shock_bubble", "centroid_every", 25);
  const double Gv = inst.G_vapor, Gl = inst.G_liquid;
  inst.per_step = [every, Gv, Gl](Simulation& sim, double, const RunContext& ctx) {
    if (every <= 0 || !ctx.progress || sim.step_count() % every != 0) return;
    // Vapor centroid: alpha-weighted center of mass along the shock axis.
    const Grid& grid = sim.grid();
    double vol = 0, cx = 0;
    for (int iz = 0; iz < grid.cells_z(); ++iz)
      for (int iy = 0; iy < grid.cells_y(); ++iy)
        for (int ix = 0; ix < grid.cells_x(); ++ix) {
          const double a =
              std::clamp((grid.cell(ix, iy, iz).G - Gl) / (Gv - Gl), 0.0, 1.0);
          vol += a;
          cx += a * grid.cell_center(ix);
        }
    const double dV = grid.h() * grid.h() * grid.h();
    ctx.progress->write(io::JsonObject()
                            .add("event", "centroid")
                            .add("step", sim.step_count())
                            .add("t_s", sim.time())
                            .add("vapor_vol_m3", vol * dV)
                            .add("centroid_x_m", vol > 0 ? cx / vol : 0.0));
  };
  return inst;
}

}  // namespace mpcf::scenario
