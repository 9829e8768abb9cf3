// Scenario engine (DESIGN.md §15): splits "what to simulate" from "how to
// run it". A scenario declares everything physics-specific — grid shape and
// extent, materials/EOS, initial and boundary conditions, diagnostics
// closure and default stop criteria — as a factory from a declarative
// Config (common/config_file.h) to a ready-to-step ScenarioInstance. The
// runner (scenario/runner.h), the `mpcf-sim` driver and the `mpcf-serve`
// job service are scenario-agnostic: they only ever see this interface.
//
// The scenarios are one name-sorted table in scenario.cpp of {name,
// description, factory}; it names each factory below by symbol, so any
// binary that reads the table links every scenario it lists.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config_file.h"
#include "core/simulation.h"
#include "workload/cloud.h"

namespace mpcf::io {
class JsonlWriter;
}

namespace mpcf::scenario {

/// When to stop stepping; satisfied when ANY bound is reached. Scenario
/// factories set physics defaults, the [run] section overrides them.
struct StopCriteria {
  long max_steps = -1;    ///< total step count (checkpoint restarts included)
  double max_time = -1;   ///< simulated seconds
  [[nodiscard]] bool unbounded() const noexcept { return max_steps < 0 && max_time < 0; }
  [[nodiscard]] bool reached(long steps, double time) const noexcept {
    return (max_steps >= 0 && steps >= max_steps) || (max_time >= 0 && time >= max_time);
  }
};

/// Output surroundings of one run, handed to scenario hooks.
struct RunContext {
  std::string outdir;                  ///< per-job output directory ("" = none)
  io::JsonlWriter* progress = nullptr; ///< progress stream (may be null)
};

/// A built, initialized simulation plus the scenario's run-time closure.
struct ScenarioInstance {
  std::string name;
  std::unique_ptr<Simulation> sim;
  /// Pure-phase Gamma pair for diagnostics (alpha inversion).
  double G_vapor = materials::kVapor.Gamma();
  double G_liquid = materials::kLiquid.Gamma();
  StopCriteria stop;
  /// Called after every accepted step with the dt taken (optional).
  std::function<void(Simulation&, double, const RunContext&)> per_step;
  /// Called once after the final step (optional): summary rows, images.
  std::function<void(Simulation&, const RunContext&)> finalize;
};

struct ScenarioInfo {
  std::string name;
  std::string description;
};

[[nodiscard]] bool is_registered(const std::string& name);

/// All scenarios of the table, sorted by name.
[[nodiscard]] std::vector<ScenarioInfo> registered();

/// Builds the scenario the config names ([scenario] name = ...); throws
/// ConfigError on a missing or unknown name, listing what is available.
[[nodiscard]] ScenarioInstance make_scenario(const Config& cfg);

// --- The built-in scenarios' factories, one per source file, listed in
// --- scenario.cpp's table.

[[nodiscard]] ScenarioInstance build_cloud_collapse(const Config& cfg);
[[nodiscard]] ScenarioInstance build_rayleigh_collapse(const Config& cfg);
[[nodiscard]] ScenarioInstance build_shock_bubble(const Config& cfg);
[[nodiscard]] ScenarioInstance build_shock_tube(const Config& cfg);
[[nodiscard]] ScenarioInstance build_wall_erosion(const Config& cfg);

// --- Shared config readers used by scenario implementations. Each reads
// --- one section with scenario-supplied defaults; every supported key is
// --- consumed so reject_unknown() can flag typos.

struct GridShape {
  int bx, by, bz, bs;
};

/// [simulation] blocks / block_size.
[[nodiscard]] GridShape read_grid(const Config& cfg, GridShape defaults);

/// [simulation] extent, cfl, weno_order, rho_floor, p_floor, fused_step and
/// the boundary conditions (`bc` sets all six faces; `bc_x_lo` .. `bc_z_hi`
/// override single faces; names: absorbing | wall | periodic).
[[nodiscard]] Simulation::Params read_sim_params(const Config& cfg,
                                                 Simulation::Params defaults);

/// [materials] gamma/pc/rho/p per phase + smoothing_cells.
[[nodiscard]] TwoPhaseIC read_materials(const Config& cfg);

/// [cloud] count, radii band, lognormal mu/sigma, placement box, separation,
/// seed, max_attempts.
[[nodiscard]] CloudParams read_cloud(const Config& cfg, CloudParams defaults);

/// Shock-tube validation helper (defined in shock_tube.cpp): mean absolute
/// density error along the x centerline of a completed shock_tube run
/// against the exact Riemann solution of the same config.
[[nodiscard]] double shock_tube_l1_error(const Config& cfg, const Simulation& sim);

}  // namespace mpcf::scenario
