// The fuzz target of the config reader (common/config_file.h) and the
// shared scenario readers; see fuzz_config.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpcf::fuzz {

/// Parses `data` as config text and runs it through read_grid,
/// read_sim_params, read_cloud, read_materials and read_run_settings, then
/// reject_unknown. Returns "" when the text was accepted, else the
/// ConfigError or PreconditionError message; any other exception escapes.
std::string read_config(const std::uint8_t* data, std::size_t size);

}  // namespace mpcf::fuzz

/// libFuzzer's entry point: read_config, ignoring the outcome.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);
