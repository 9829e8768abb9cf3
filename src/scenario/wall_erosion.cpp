// Wall-erosion footprint — the engineering deliverable the paper motivates
// (erosion of fuel injectors, propellers, turbines), ported from the
// retired examples/wall_erosion.cpp binary. A small bubble cluster
// collapses above a solid wall; a WallLoadingMonitor accumulates the
// pressure-impulse and peak-pressure maps, and the finalize hook writes the
// damage indicators plus the impulse footprint image.
#include <cmath>
#include <memory>

#include "core/wall_loading.h"
#include "io/jsonl.h"
#include "scenario/scenario.h"

namespace mpcf::scenario {

ScenarioInstance build_wall_erosion(const Config& cfg) {
  Simulation::Params defaults;
  defaults.extent = 1.5e-3;
  defaults.bc.face[2][0] = BCType::kWall;
  const Simulation::Params params = read_sim_params(cfg, defaults);
  const GridShape g = read_grid(cfg, {6, 6, 6, 8});

  CloudParams cloud_defaults;
  cloud_defaults.count = 5;
  cloud_defaults.r_min = 120e-6;
  cloud_defaults.r_max = 280e-6;
  cloud_defaults.lognormal_mu = std::log(180e-6);
  cloud_defaults.box_lo = 0.25;
  cloud_defaults.box_hi = 0.65;  // cluster sits above the wall
  const CloudParams cloud = read_cloud(cfg, cloud_defaults);
  const TwoPhaseIC ic = read_materials(cfg);

  const double pit_threshold =
      cfg.get_double("wall_erosion", "pit_threshold", 1.5 * ic.p_liquid);

  ScenarioInstance inst;
  inst.sim = std::make_unique<Simulation>(g.bx, g.by, g.bz, g.bs, params);
  const auto bubbles = generate_cloud(cloud, params.extent);
  set_cloud_ic(inst.sim->grid(), bubbles, ic);
  inst.G_vapor = ic.vapor.Gamma();
  inst.G_liquid = ic.liquid.Gamma();
  inst.stop.max_steps = 400;

  auto monitor =
      std::make_shared<WallLoadingMonitor>(inst.sim->grid(), params.bc, /*axis=*/2,
                                           /*side=*/0);
  inst.per_step = [monitor](Simulation& sim, double dt, const RunContext&) {
    monitor->accumulate(sim.grid(), dt);
  };
  inst.finalize = [monitor, pit_threshold](Simulation& sim, const RunContext& ctx) {
    const auto sum = monitor->summary(pit_threshold);
    if (ctx.progress)
      ctx.progress->write(io::JsonObject()
                              .add("event", "summary")
                              .add("t_end_s", sim.time())
                              .add("peak_wall_pressure_pa", sum.peak_pressure)
                              .add("mean_impulse_pas", sum.mean_impulse)
                              .add("max_impulse_pas", sum.max_impulse)
                              .add("loaded_fraction", sum.loaded_fraction));
    if (!ctx.outdir.empty())
      monitor->write_impulse_ppm(ctx.outdir + "/wall_impulse.ppm");
  };
  return inst;
}

}  // namespace mpcf::scenario
