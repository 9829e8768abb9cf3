// The fuzz target of the one container reader (io/container.h) and both
// payload decoders; see fuzz_container.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpcf::fuzz {

/// The grid every corpus checkpoint holds: 2x2x2 blocks of 8^3 over 1 mm.
inline constexpr int kBlocks[3] = {2, 2, 2};
inline constexpr int kBlockSize = 8;
inline constexpr double kExtent = 1e-3;

/// What each reader made of one input: empty when it was accepted and
/// decoded, else the PreconditionError message. Any other exception
/// escapes.
struct Outcome {
  std::string dump;
  std::string checkpoint;
};

/// Runs `data` through read_compressed + decompress_to_field and through
/// load_grid_checkpoint into a grid of the corpus shape.
Outcome run_one(const std::uint8_t* data, std::size_t size);

/// The file run_one writes each input to (one per process).
[[nodiscard]] const std::string& scratch_path();

}  // namespace mpcf::fuzz

/// libFuzzer's entry point: run_one, ignoring the outcome.
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);
