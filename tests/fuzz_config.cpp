// Fuzz target of the config reader: an input is parsed as config text
// (Config::parse_string), read by the readers every scenario build calls
// (read_grid, read_sim_params, read_cloud, read_materials and
// read_run_settings) and checked with reject_unknown. It builds no grid.
// The pass condition is no crash, hang or sanitizer report, with every
// rejection a ConfigError or PreconditionError: any other exception
// escapes read_config.
//
// LLVMFuzzerTestOneInput has libFuzzer's signature, so a clang build can
// link this file with -fsanitize=fuzzer as is; tier-1 drives it through the
// seeded in-tree mutator of test_fuzz_config.cpp.
#include "fuzz_config.h"

#include "common/config_file.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace mpcf::fuzz {

std::string read_config(const std::uint8_t* data, std::size_t size) {
  try {
    const Config cfg = Config::parse_string(std::string(data, data + size), "fuzz.cfg");
    // make_scenario's own read; the builders' defaults below are
    // cloud_collapse's shape and the library's parameters.
    (void)cfg.get_string("scenario", "name", "");
    (void)scenario::read_grid(cfg, {8, 8, 8, 8});
    (void)scenario::read_sim_params(cfg, Simulation::Params{});
    (void)scenario::read_cloud(cfg, CloudParams{});
    (void)scenario::read_materials(cfg);
    (void)scenario::read_run_settings(cfg, scenario::StopCriteria{1, -1});
    cfg.reject_unknown();
  } catch (const ConfigError& e) {
    return e.what();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return {};
}

}  // namespace mpcf::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  (void)mpcf::fuzz::read_config(data, size);
  return 0;
}
