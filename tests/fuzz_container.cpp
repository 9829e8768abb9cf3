// Fuzz target of every reader of untrusted file bytes: the one container
// reader and both payload decoders. An input is written to a scratch file
// and read as a `.cq` dump (read_compressed, then decompress_to_field) and
// as a checkpoint (load_grid_checkpoint into a grid of the corpus shape).
// The pass condition is no crash, hang or sanitizer report, with every
// rejection a PreconditionError: any other exception escapes run_one.
//
// LLVMFuzzerTestOneInput has libFuzzer's signature, so a clang build can
// link this file with -fsanitize=fuzzer as is; tier-1 drives it through the
// seeded in-tree mutator of test_fuzz_container.cpp.
#include "fuzz_container.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "compression/compressor.h"
#include "grid/grid.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"

namespace mpcf::fuzz {

const std::string& scratch_path() {
  static const std::string path = (std::filesystem::temp_directory_path() /
                                   ("mpcf_fuzz_" + std::to_string(::getpid()) + ".bin"))
                                      .string();
  return path;
}

namespace {

void write_input(const std::uint8_t* data, std::size_t size) {
  // mpcf-lint: allow(raw-io): the target plants arbitrary bytes; SafeFile's fsync per input would dominate the run
  std::FILE* f = std::fopen(scratch_path().c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("fuzz: cannot open " + scratch_path());
  const bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("fuzz: cannot write " + scratch_path());
}

}  // namespace

Outcome run_one(const std::uint8_t* data, std::size_t size) {
  write_input(data, size);
  Outcome out;
  try {
    (void)compression::decompress_to_field(io::read_compressed(scratch_path()));
  } catch (const PreconditionError& e) {
    out.dump = e.what();
  }
  static Grid grid(kBlocks[0], kBlocks[1], kBlocks[2], kBlockSize, kExtent);
  try {
    (void)io::load_grid_checkpoint(scratch_path(), grid);
  } catch (const PreconditionError& e) {
    out.checkpoint = e.what();
  }
  return out;
}

}  // namespace mpcf::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  (void)mpcf::fuzz::run_one(data, size);
  return 0;
}
