// Scenario engine tests (DESIGN.md §15): registry contents, the exact
// Riemann reference solver, bitwise equivalence between config-driven
// scenario builds and the retired hard-coded example setups, the Sod L1
// validation bound, checkpoint-resume determinism of the runner and the
// set-up times on its start rows, and the checked-in example configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/config_file.h"
#include "core/simulation.h"
#include "eos/stiffened_gas.h"
#include "ic_oracle.h"
#include "io/jsonl.h"
#include "io/safe_file.h"
#include "physics/riemann_exact.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "workload/cloud.h"

#ifndef MPCF_CONFIG_DIR
#define MPCF_CONFIG_DIR "examples/configs"
#endif

namespace mpcf {
namespace {

::testing::AssertionResult grids_bitwise_equal(const Grid& a, const Grid& b) {
  if (a.cells_x() != b.cells_x() || a.cells_y() != b.cells_y() ||
      a.cells_z() != b.cells_z())
    return ::testing::AssertionFailure() << "grid shapes differ";
  for (int iz = 0; iz < a.cells_z(); ++iz)
    for (int iy = 0; iy < a.cells_y(); ++iy)
      for (int ix = 0; ix < a.cells_x(); ++ix) {
        const Cell& ca = a.cell(ix, iy, iz);
        const Cell& cb = b.cell(ix, iy, iz);
        if (std::memcmp(&ca, &cb, sizeof(Cell)) != 0)
          return ::testing::AssertionFailure()
                 << "cells differ at (" << ix << ", " << iy << ", " << iz << ")";
      }
  return ::testing::AssertionSuccess();
}

std::string config_path(const std::string& name) {
  return std::string(MPCF_CONFIG_DIR) + "/" + name;
}

/// Advances both simulations `steps` times and requires bitwise identity
/// before and after (same ICs, same trajectory).
void expect_lockstep_identical(Simulation& from_config, Simulation& hardcoded,
                               int steps) {
  ASSERT_TRUE(grids_bitwise_equal(from_config.grid(), hardcoded.grid()))
      << "initial conditions differ";
  for (int i = 0; i < steps; ++i) {
    const double dt_a = from_config.step();
    const double dt_b = hardcoded.step();
    ASSERT_EQ(dt_a, dt_b) << "dt diverged at step " << i;
  }
  EXPECT_TRUE(grids_bitwise_equal(from_config.grid(), hardcoded.grid()))
      << "states diverged after " << steps << " steps";
}

TEST(ScenarioRegistry, ListsTheBuiltins) {
  const auto infos = scenario::registered();
  std::vector<std::string> names;
  names.reserve(infos.size());
  for (const auto& info : infos) names.push_back(info.name);
  for (const char* expected :
       {"cloud_collapse", "rayleigh_collapse", "shock_bubble", "shock_tube",
        "wall_erosion"})
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << "missing scenario: " << expected;
  EXPECT_TRUE(scenario::is_registered("cloud_collapse"));
  EXPECT_FALSE(scenario::is_registered("no_such_scenario"));
}

TEST(ScenarioRegistry, UnknownNameListsAvailableScenarios) {
  const Config cfg = Config::parse_string("[scenario]\nname = warp_drive\n", "x.cfg");
  try {
    (void)scenario::make_scenario(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp_drive"), std::string::npos);
    EXPECT_NE(msg.find("cloud_collapse"), std::string::npos) << msg;
  }
}

TEST(ExactRiemann, SodStarStateMatchesLiterature) {
  // Toro, "Riemann Solvers and Numerical Methods for Fluid Dynamics",
  // Table 4.2 (test 1): p* = 0.30313, u* = 0.92745.
  const physics::ExactRiemann sod({1.0, 0.0, 1.0}, {0.125, 0.0, 0.1}, 1.4);
  EXPECT_NEAR(sod.p_star(), 0.30313, 2e-5);
  EXPECT_NEAR(sod.u_star(), 0.92745, 2e-5);
  // Far field samples recover the unperturbed input states.
  EXPECT_DOUBLE_EQ(sod.sample(-10.0).rho, 1.0);
  EXPECT_DOUBLE_EQ(sod.sample(10.0).rho, 0.125);
}

TEST(ExactRiemann, SymmetricCollisionIsStationary) {
  const physics::ExactRiemann head_on({1.0, 1.0, 1.0}, {1.0, -1.0, 1.0}, 1.4);
  EXPECT_NEAR(head_on.u_star(), 0.0, 1e-12);
  EXPECT_GT(head_on.p_star(), 1.0);  // two shocks compress the middle
}

// --- Bitwise parity: building a scenario from its checked-in config must
// --- reproduce the retired hard-coded example setup exactly, ICs and
// --- trajectory both (the configs restate the scenario defaults).

TEST(ScenarioParity, CloudCollapseMatchesRetiredExample) {
  const Config cfg = Config::parse_file(config_path("cloud_collapse.cfg"));
  auto inst = scenario::make_scenario(cfg);

  Simulation::Params params;
  params.extent = 2e-3;
  params.bc.face[2][0] = BCType::kWall;
  Simulation hard(8, 8, 8, 8, params);
  CloudParams cloud;
  cloud.count = 12;
  cloud.r_min = 60e-6;
  cloud.r_max = 220e-6;
  cloud.lognormal_mu = -8.9;
  cloud.box_lo = 0.25;
  cloud.box_hi = 0.75;
  set_cloud_ic(hard.grid(), generate_cloud(cloud, params.extent), TwoPhaseIC{});

  expect_lockstep_identical(*inst.sim, hard, 2);
}

TEST(ScenarioParity, ShockBubbleMatchesRetiredExample) {
  const Config cfg = Config::parse_file(config_path("shock_bubble.cfg"));
  auto inst = scenario::make_scenario(cfg);

  Simulation::Params params;
  params.extent = 1e-3;
  Simulation hard(8, 4, 4, 8, params);
  ShockBubbleIC ic;
  ic.shock_x = 0.15;
  ic.p_ratio = 10.0;
  ic.bubble = Bubble{0.45, 0.5, 0.5, 0.12};
  set_shock_bubble_ic(hard.grid(), ic);

  expect_lockstep_identical(*inst.sim, hard, 2);
}

TEST(ScenarioParity, RayleighCollapseMatchesRetiredExample) {
  const Config cfg = Config::parse_file(config_path("rayleigh_collapse.cfg"));
  auto inst = scenario::make_scenario(cfg);

  const int ppr = 8;
  const double R0 = 0.2e-3;
  const double extent = 5.0 * R0;
  const int cells = std::max(32, 2 * ((5 * ppr + 7) / 8) * 4);
  const int bs = 8;
  const int blocks = (cells + bs - 1) / bs;
  Simulation::Params params;
  params.extent = extent;
  Simulation hard(blocks, blocks, blocks, bs, params);
  const std::vector<Bubble> one{Bubble{extent / 2, extent / 2, extent / 2, R0}};
  set_cloud_ic(hard.grid(), one, TwoPhaseIC{});

  expect_lockstep_identical(*inst.sim, hard, 2);
}

TEST(ScenarioParity, WallErosionMatchesRetiredExample) {
  const Config cfg = Config::parse_file(config_path("wall_erosion.cfg"));
  auto inst = scenario::make_scenario(cfg);

  Simulation::Params params;
  params.extent = 1.5e-3;
  params.bc.face[2][0] = BCType::kWall;
  Simulation hard(6, 6, 6, 8, params);
  CloudParams cloud;
  cloud.count = 5;
  cloud.r_min = 120e-6;
  cloud.r_max = 280e-6;
  cloud.lognormal_mu = std::log(180e-6);
  cloud.box_lo = 0.25;
  cloud.box_hi = 0.65;
  set_cloud_ic(hard.grid(), generate_cloud(cloud, params.extent), TwoPhaseIC{});

  expect_lockstep_identical(*inst.sim, hard, 2);
}

TEST(ScenarioIC, ShippedConfigsMatchThePerCellOracleOnSmallGrids) {
  // Every shipped config, rebuilt on small grids of block sizes 4, 8 and
  // 16, against the per-cell oracle set from the scenario's inputs (the
  // configs restate the defaults the parity tests above hard-code).
  const double R0 = 0.2e-3;
  CloudParams cloud, erosion;
  cloud.count = 12;
  cloud.r_min = 60e-6;
  cloud.r_max = 220e-6;
  cloud.lognormal_mu = -8.9;
  erosion.count = 5;
  erosion.r_min = 120e-6;
  erosion.r_max = 280e-6;
  erosion.lognormal_mu = std::log(180e-6);
  erosion.box_hi = 0.65;
  ShockBubbleIC shock;
  shock.shock_x = 0.15;
  shock.bubble = Bubble{0.45, 0.5, 0.5, 0.12};

  std::vector<std::string> seen;
  for (const auto& entry : std::filesystem::directory_iterator(MPCF_CONFIG_DIR)) {
    if (entry.path().extension() != ".cfg") continue;
    const std::string name =
        Config::parse_file(entry.path()).get_string("scenario", "name", "");
    seen.push_back(name);
    if (name == "shock_tube") continue;  // sets its own IC: no bubbles
    struct Shape {
      const char* blocks;
      const char* bs;
    };
    for (const Shape& shape : {Shape{"4 4 4", "4"}, Shape{"2 3 2", "8"}, Shape{"1 1 1", "16"}}) {
      SCOPED_TRACE(entry.path().filename().string() + ", block size " + shape.bs);
      Config cfg = Config::parse_file(entry.path());
      cfg.set("simulation", "blocks", shape.blocks);
      cfg.set("simulation", "block_size", shape.bs);
      const scenario::ScenarioInstance inst = scenario::make_scenario(cfg);
      const Grid& g = inst.sim->grid();
      const double extent = inst.sim->params().extent;
      Grid oracle(g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size(), extent);
      if (name == "cloud_collapse")
        ic_oracle::set_cloud_ic_per_cell(oracle, generate_cloud(cloud, extent), TwoPhaseIC{});
      else if (name == "wall_erosion")
        ic_oracle::set_cloud_ic_per_cell(oracle, generate_cloud(erosion, extent), TwoPhaseIC{});
      else if (name == "rayleigh_collapse")
        ic_oracle::set_cloud_ic_per_cell(
            oracle, {Bubble{extent / 2, extent / 2, extent / 2, R0}}, TwoPhaseIC{});
      else if (name == "shock_bubble")
        ic_oracle::set_shock_bubble_ic_per_cell(oracle, shock);
      else
        FAIL() << "no oracle for scenario " << name;
      EXPECT_TRUE(ic_oracle::blocks_bitwise_equal(g, oracle));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"cloud_collapse", "rayleigh_collapse",
                                            "shock_bubble", "shock_tube", "wall_erosion"}));
}

TEST(ScenarioValidation, SodL1DensityErrorWithinBound) {
  const Config cfg = Config::parse_file(config_path("sod_shock_tube.cfg"));
  auto inst = scenario::make_scenario(cfg);
  const scenario::RunSettings run = scenario::read_run_settings(cfg, inst.stop);
  while (!run.stop.reached(inst.sim->step_count(), inst.sim->time()))
    inst.sim->step();
  // Measured ~0.0038 at 128 cells; 0.01 leaves headroom for ISA variation
  // while still catching any real solver or scenario-plumbing regression.
  EXPECT_LT(scenario::shock_tube_l1_error(cfg, *inst.sim), 0.01);
  EXPECT_GT(inst.sim->time(), 0.19);
}

TEST(ScenarioRunner, CheckedInConfigsAreFullyConsumed) {
  for (const char* name :
       {"cloud_collapse.cfg", "rayleigh_collapse.cfg", "shock_bubble.cfg",
        "wall_erosion.cfg", "sod_shock_tube.cfg"}) {
    SCOPED_TRACE(name);
    const Config cfg = Config::parse_file(config_path(name));
    auto inst = scenario::make_scenario(cfg);
    ASSERT_NE(inst.sim, nullptr);
    (void)scenario::read_run_settings(cfg, inst.stop);
    EXPECT_NO_THROW(cfg.reject_unknown());
  }
}

TEST(ScenarioRunner, MissingStopCriterionIsAConfigError) {
  const Config cfg = Config::parse_string("[scenario]\nname = cloud_collapse\n", "x.cfg");
  EXPECT_THROW((void)scenario::read_run_settings(cfg, scenario::StopCriteria{}),
               ConfigError);
}

/// The last `start` row of a run directory's progress.jsonl.
std::string last_start_row(const std::string& outdir) {
  std::string row;
  for (const std::string& line : io::read_jsonl(outdir + "/progress.jsonl"))
    if (io::json_find_string(line, "event").value_or("") == "start") row = line;
  return row;
}

TEST(ScenarioRunner, ResumeFromCheckpointIsBitwiseIdentical) {
  const std::string base = ::testing::TempDir() + "/mpcf_resume_test";
  std::filesystem::remove_all(base);
  const char* text =
      "[scenario]\n"
      "name = shock_tube\n"
      "[simulation]\n"
      "blocks = 4 1 1\n"
      "[run]\n"
      "steps = 8\n"
      "diag_every = 0\n"
      "checkpoint_every = 2\n";
  const Config full = Config::parse_string(text, "resume.cfg");

  scenario::RunOptions opt;
  opt.quiet = true;

  // Reference: one uninterrupted 8-step run.
  opt.outdir = base + "/full";
  const auto ref = scenario::run_scenario(full, opt);
  EXPECT_EQ(ref.steps, 8);
  EXPECT_EQ(ref.resumed_from, -1);

  // Interrupted: stop after 4 steps, then resume the same outdir to 8.
  Config half = Config::parse_string(text, "resume.cfg");
  half.set("run", "steps", "4");
  opt.outdir = base + "/split";
  (void)scenario::run_scenario(half, opt);
  opt.resume = true;
  opt.attempt = 1;
  const auto resumed = scenario::run_scenario(full, opt);
  EXPECT_EQ(resumed.resumed_from, 4);
  EXPECT_EQ(resumed.steps, 8);

  // The step-8 checkpoints capture state + clock; bitwise-equal files mean
  // the resumed trajectory is indistinguishable from the uninterrupted one.
  const auto a = io::read_file(base + "/full/checkpoints/ckp_00000008.ckp");
  const auto b = io::read_file(base + "/split/checkpoints/ckp_00000008.ckp");
  EXPECT_TRUE(a == b) << "resumed run diverged from the uninterrupted run";

  // Each start row carries the run's set-up cost; resume_s is 0 when the
  // run did not resume.
  const std::string fresh = last_start_row(base + "/full");
  const std::string resumed_row = last_start_row(base + "/split");
  ASSERT_NE(resumed_row.find("\"resumed\":true"), std::string::npos) << resumed_row;
  for (const std::string& row : {fresh, resumed_row})
    for (const char* key : {"build_s", "resume_s"}) {
      const auto seconds = io::json_find_number(row, key);
      ASSERT_TRUE(seconds.has_value()) << key << " missing from " << row;
      EXPECT_TRUE(std::isfinite(*seconds)) << key << " in " << row;
      EXPECT_GE(*seconds, 0.0) << key << " in " << row;
    }
  EXPECT_EQ(io::json_find_number(fresh, "resume_s").value_or(-1), 0.0);
}

}  // namespace
}  // namespace mpcf
