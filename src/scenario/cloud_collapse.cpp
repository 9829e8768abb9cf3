// Cloud cavitation collapse near a solid wall — the paper's production
// scenario (Section 7) at reproduction scale, ported from the retired
// examples/cloud_collapse.cpp binary. Defaults reproduce that binary's
// hard-coded setup bitwise (tests/test_scenario.cpp pins this).
#include "scenario/scenario.h"

namespace mpcf::scenario {

ScenarioInstance build_cloud_collapse(const Config& cfg) {
  Simulation::Params defaults;
  defaults.extent = 2e-3;
  defaults.bc.face[2][0] = BCType::kWall;  // solid wall at z = 0
  const Simulation::Params params = read_sim_params(cfg, defaults);
  const GridShape g = read_grid(cfg, {8, 8, 8, 8});

  CloudParams cloud_defaults;
  cloud_defaults.count = 12;
  cloud_defaults.r_min = 60e-6;
  cloud_defaults.r_max = 220e-6;
  cloud_defaults.lognormal_mu = -8.9;  // exp(-8.9) ~ 136 um at this box scale
  const CloudParams cloud = read_cloud(cfg, cloud_defaults);
  const TwoPhaseIC ic = read_materials(cfg);

  ScenarioInstance inst;
  inst.sim = std::make_unique<Simulation>(g.bx, g.by, g.bz, g.bs, params);
  const auto bubbles = generate_cloud(cloud, params.extent);
  set_cloud_ic(inst.sim->grid(), bubbles, ic);
  inst.G_vapor = ic.vapor.Gamma();
  inst.G_liquid = ic.liquid.Gamma();
  inst.stop.max_steps = 200;
  return inst;
}

}  // namespace mpcf::scenario
