#include "scenario/scenario.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace mpcf::scenario {

namespace {

struct Entry {
  const char* name;
  const char* description;
  ScenarioInstance (*factory)(const Config&);
};

/// Every scenario, sorted by name.
constexpr Entry kScenarios[] = {
    {"cloud_collapse",
     "lognormal bubble cloud collapsing in pressurized liquid over a solid wall (paper "
     "Section 7)",
     build_cloud_collapse},
    {"rayleigh_collapse",
     "single vapor bubble collapsing on the Rayleigh time, validated against "
     "Rayleigh-Plesset / Keller-Miksis ODE baselines",
     build_rayleigh_collapse},
    {"shock_bubble",
     "planar shock in liquid collapsing a single gas bubble (re-entrant jet validation "
     "flow, paper refs [33, 34])",
     build_shock_bubble},
    {"shock_tube", "1-D shock tube (Sod et al.) validated against the exact Riemann solution",
     build_shock_tube},
    {"wall_erosion",
     "bubble cluster collapsing above a solid wall; accumulates the pressure-impulse damage "
     "footprint on the surface",
     build_wall_erosion},
};

constexpr bool by_name(const Entry& a, const Entry& b) {
  return std::string_view(a.name) < std::string_view(b.name);
}
static_assert(std::is_sorted(std::begin(kScenarios), std::end(kScenarios), by_name),
              "kScenarios must stay sorted by name");

const Entry* find(const std::string& name) {
  for (const Entry& e : kScenarios)
    if (name == e.name) return &e;
  return nullptr;
}

}  // namespace

bool is_registered(const std::string& name) { return find(name) != nullptr; }

std::vector<ScenarioInfo> registered() {
  std::vector<ScenarioInfo> out;
  for (const Entry& e : kScenarios) out.push_back(ScenarioInfo{e.name, e.description});
  return out;
}

ScenarioInstance make_scenario(const Config& cfg) {
  const std::string name = cfg.get_string("scenario", "name", "");
  if (name.empty())
    throw ConfigError(cfg.name() + ": missing required key [scenario] name");
  const Entry* entry = find(name);
  if (entry == nullptr) {
    std::string avail;
    for (const Entry& e : kScenarios) {
      if (!avail.empty()) avail += ", ";
      avail += e.name;
    }
    throw ConfigError(cfg.name() + ": unknown scenario '" + name + "' (available: " + avail +
                      ")");
  }
  ScenarioInstance inst = entry->factory(cfg);
  inst.name = name;
  require(inst.sim != nullptr, "scenario '" + name + "' produced no simulation");
  return inst;
}

GridShape read_grid(const Config& cfg, GridShape defaults) {
  const auto b = cfg.get_int3("simulation", "blocks", {defaults.bx, defaults.by, defaults.bz});
  GridShape g{b[0], b[1], b[2], cfg.get_int("simulation", "block_size", defaults.bs)};
  if (g.bx <= 0 || g.by <= 0 || g.bz <= 0 || g.bs <= 0)
    throw ConfigError(cfg.name() + ": [simulation] blocks/block_size must be positive");
  return g;
}

namespace {

BCType parse_bc(const Config& cfg, const std::string& key, const std::string& raw) {
  if (raw == "absorbing") return BCType::kAbsorbing;
  if (raw == "wall") return BCType::kWall;
  if (raw == "periodic") return BCType::kPeriodic;
  throw ConfigError(cfg.name() + ": [simulation] " + key +
                    ": unknown boundary condition '" + raw +
                    "' (absorbing | wall | periodic)");
}

}  // namespace

Simulation::Params read_sim_params(const Config& cfg, Simulation::Params defaults) {
  Simulation::Params p = defaults;
  p.extent = cfg.get_double("simulation", "extent", defaults.extent);
  p.cfl = cfg.get_double("simulation", "cfl", defaults.cfl);
  p.weno_order = cfg.get_int("simulation", "weno_order", defaults.weno_order);
  p.rho_floor = cfg.get_double("simulation", "rho_floor", defaults.rho_floor);
  p.p_floor = cfg.get_double("simulation", "p_floor", defaults.p_floor);
  p.fused_step = cfg.get_bool("simulation", "fused_step", defaults.fused_step);
  if (p.extent <= 0) throw ConfigError(cfg.name() + ": [simulation] extent must be positive");
  if (p.cfl <= 0 || p.cfl > 1)
    throw ConfigError(cfg.name() + ": [simulation] cfl must be in (0, 1]");
  if (p.weno_order != 3 && p.weno_order != 5)
    throw ConfigError(cfg.name() + ": [simulation] weno_order must be 3 or 5");

  if (cfg.has("simulation", "bc"))
    p.bc = BoundaryConditions::all(
        parse_bc(cfg, "bc", cfg.get_string("simulation", "bc", "")));
  static constexpr const char* kFaceKeys[3][2] = {
      {"bc_x_lo", "bc_x_hi"}, {"bc_y_lo", "bc_y_hi"}, {"bc_z_lo", "bc_z_hi"}};
  for (int axis = 0; axis < 3; ++axis)
    for (int side = 0; side < 2; ++side) {
      const char* key = kFaceKeys[axis][side];
      if (cfg.has("simulation", key))
        p.bc.face[axis][side] = parse_bc(cfg, key, cfg.get_string("simulation", key, ""));
    }
  return p;
}

TwoPhaseIC read_materials(const Config& cfg) {
  TwoPhaseIC ic;
  ic.vapor.gamma = cfg.get_double("materials", "gamma_vapor", ic.vapor.gamma);
  ic.vapor.pc = cfg.get_double("materials", "pc_vapor", ic.vapor.pc);
  ic.liquid.gamma = cfg.get_double("materials", "gamma_liquid", ic.liquid.gamma);
  ic.liquid.pc = cfg.get_double("materials", "pc_liquid", ic.liquid.pc);
  ic.rho_vapor = cfg.get_double("materials", "rho_vapor", ic.rho_vapor);
  ic.rho_liquid = cfg.get_double("materials", "rho_liquid", ic.rho_liquid);
  ic.p_vapor = cfg.get_double("materials", "p_vapor", ic.p_vapor);
  ic.p_liquid = cfg.get_double("materials", "p_liquid", ic.p_liquid);
  ic.smoothing_cells = cfg.get_double("materials", "smoothing_cells", ic.smoothing_cells);
  if (ic.vapor.gamma <= 1 || ic.liquid.gamma <= 1)
    throw ConfigError(cfg.name() + ": [materials] gamma must exceed 1");
  if (ic.rho_vapor <= 0 || ic.rho_liquid <= 0)
    throw ConfigError(cfg.name() + ": [materials] densities must be positive");
  return ic;
}

CloudParams read_cloud(const Config& cfg, CloudParams defaults) {
  CloudParams c = defaults;
  c.count = cfg.get_int("cloud", "count", defaults.count);
  c.r_min = cfg.get_double("cloud", "r_min", defaults.r_min);
  c.r_max = cfg.get_double("cloud", "r_max", defaults.r_max);
  c.lognormal_mu = cfg.get_double("cloud", "lognormal_mu", defaults.lognormal_mu);
  c.lognormal_sigma = cfg.get_double("cloud", "lognormal_sigma", defaults.lognormal_sigma);
  c.box_lo = cfg.get_double("cloud", "box_lo", defaults.box_lo);
  c.box_hi = cfg.get_double("cloud", "box_hi", defaults.box_hi);
  c.separation = cfg.get_double("cloud", "separation", defaults.separation);
  c.seed = static_cast<std::uint64_t>(
      cfg.get_long("cloud", "seed", static_cast<long>(defaults.seed)));
  c.max_attempts = cfg.get_int("cloud", "max_attempts", defaults.max_attempts);
  return c;
}

}  // namespace mpcf::scenario
