// Single-bubble Rayleigh collapse — the physics validation the cavitation
// literature is built on (paper Section 2, refs [61, 25, 35]), ported from
// the retired examples/rayleigh_collapse.cpp binary. A vapor bubble in
// pressurized liquid collapses on the Rayleigh time
// tau = 0.915 R sqrt(rho_l / dp); the finalize hook reports the measured
// collapse time against tau and the Rayleigh-Plesset / Keller-Miksis ODE
// baselines.
#include <cmath>
#include <memory>

#include "io/jsonl.h"
#include "physics/bubble_ode.h"
#include "scenario/scenario.h"

namespace mpcf::scenario {

ScenarioInstance build_rayleigh_collapse(const Config& cfg) {
  const int ppr = cfg.get_int("rayleigh", "ppr", 8);
  const double R0 = cfg.get_double("rayleigh", "R0", 0.2e-3);
  if (ppr <= 0 || R0 <= 0)
    throw ConfigError(cfg.name() + ": [rayleigh] ppr and R0 must be positive");

  Simulation::Params defaults;
  defaults.extent = 5.0 * R0;
  const Simulation::Params params = read_sim_params(cfg, defaults);
  // Resolution chosen from points-per-radius exactly as the retired example
  // binary did (block math included, so defaults stay bitwise-comparable).
  const int cells = std::max(32, 2 * ((5 * ppr + 7) / 8) * 4);
  const int bs_def = 8;
  const int blocks = (cells + bs_def - 1) / bs_def;
  const GridShape g = read_grid(cfg, {blocks, blocks, blocks, bs_def});
  const TwoPhaseIC ic = read_materials(cfg);

  ScenarioInstance inst;
  inst.sim = std::make_unique<Simulation>(g.bx, g.by, g.bz, g.bs, params);
  const std::vector<Bubble> one{
      Bubble{params.extent / 2, params.extent / 2, params.extent / 2, R0}};
  set_cloud_ic(inst.sim->grid(), one, ic);
  inst.G_vapor = ic.vapor.Gamma();
  inst.G_liquid = ic.liquid.Gamma();

  const double dp = ic.p_liquid - ic.p_vapor;
  if (dp <= 0)
    throw ConfigError(cfg.name() + ": [materials] p_liquid must exceed p_vapor "
                      "(no driving pressure, the bubble cannot collapse)");
  const double tau = 0.915 * R0 * std::sqrt(ic.rho_liquid / dp);
  inst.stop.max_time = cfg.get_double("rayleigh", "t_end_tau", 1.6) * tau;

  // Track the first minimum of the vapor volume: the measured collapse time.
  struct Track {
    double min_vol = 1e300;
    double t_collapse = 0;
  };
  auto track = std::make_shared<Track>();
  const double Gv = inst.G_vapor, Gl = inst.G_liquid;
  inst.per_step = [track, Gv, Gl](Simulation& sim, double, const RunContext&) {
    const Diagnostics d = sim.diagnostics(Gv, Gl);
    if (d.vapor_volume < track->min_vol) {
      track->min_vol = d.vapor_volume;
      track->t_collapse = sim.time();
    }
  };
  inst.finalize = [track, tau, R0, ic](Simulation& sim, const RunContext& ctx) {
    if (!ctx.progress) return;
    // ODE baselines (paper Section 2): the single-bubble theory the 3-D run
    // is positioned against.
    physics::BubbleOdeParams ode;
    ode.R0 = R0;
    ode.p_liquid = ic.p_liquid;
    ode.p_bubble0 = ic.p_vapor;
    const auto rp = physics::integrate_bubble(ode, physics::BubbleModel::kRayleighPlesset,
                                              1.6 * tau, tau / 100000.0, 0.05, 500);
    const auto km = physics::integrate_bubble(ode, physics::BubbleModel::kKellerMiksis,
                                              1.6 * tau, tau / 100000.0, 0.05, 500);
    ctx.progress->write(io::JsonObject()
                            .add("event", "summary")
                            .add("tau_s", tau)
                            .add("t_collapse_s", track->t_collapse)
                            .add("t_collapse_tau", track->t_collapse / tau)
                            .add("rp_collapse_tau", physics::first_collapse_time(rp) / tau)
                            .add("km_collapse_tau", physics::first_collapse_time(km) / tau)
                            .add("t_end_s", sim.time()));
  };
  return inst;
}

}  // namespace mpcf::scenario
