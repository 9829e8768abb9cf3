// Bitwise-exact checkpoint/restart. Analysis dumps go through the lossy
// wavelet pipeline; restart files must be exact AND trustworthy. A
// checkpoint is the payload "PLRL" over the one container (io/container.h,
// DESIGN.md §8): written atomically, a header CRC and one CRC per blob, so
// a crash mid-write never leaves a half-written file at the final path and
// bit-rot is refused at load instead of restored into the solver.
//
// Payload: a grid's blocks in SFC order, cut into runs of about 1 MiB of
// cells (a pure function of the grid's shape). Each run is one blob under
// its blocks' global ids: the run's cells as 28 byte planes (plane k holds
// byte k of every cell), one zlib stream with the Z_RLE strategy. The
// record holds f64 time, f64 extent, i64 steps. Blobs are encoded and
// decoded on the caller's thread_count() workers
// (common/chunk_loop.h); the bytes do not depend on the worker count. A
// grid's runs are its blob plan (checkpoint_plan), saved through the one
// save path, io::save_container: each blob goes to the file as soon as it
// and every blob before it are encoded, so a save holds at most
// 2 x workers encoded blobs.
//
// A cluster checkpoint is every rank's plan in rank order; the node layer
// is the one-rank case. The bytes thus depend on the topology, and any file
// restores into any topology of the same global shape: a load reads only
// the blobs that hold its blocks.
#pragma once

#include <string>
#include <vector>

#include "core/simulation.h"
#include "io/container.h"

namespace mpcf::io {

/// Simulation clock recovered from a checkpoint.
struct CheckpointClock {
  double time = 0;
  long steps = 0;
};

/// The global id of every block of `g` (in g's block order) when g is the
/// box of a bx*by*bz-block global grid whose first block is (ox, oy, oz).
[[nodiscard]] std::vector<std::uint32_t> global_block_ids(const Grid& g, int bx, int by,
                                                          int bz, int ox = 0, int oy = 0,
                                                          int oz = 0);

/// The container header of a checkpoint of a global grid of bx*by*bz blocks
/// of bs^3 cells spanning `extent` in x.
[[nodiscard]] ContainerHeader checkpoint_header(int bx, int by, int bz, int bs, double time,
                                                double extent, long steps);

/// g's blocks as a save's blob plan (io/container.h), block i stored under
/// global id ids[i]: a cluster rank's share of a collective save, or a node
/// save's one plan. The plan reads g's cells as it encodes.
[[nodiscard]] BlobPlan checkpoint_plan(const Grid& g, std::vector<std::uint32_t> ids);

/// A checkpoint opened for a load into a global grid of bx*by*bz blocks of
/// bs^3 over `extent`, where `targets[id]` is the block global block `id`
/// restores into (null: another process's). The constructor validates the
/// file and checks every blob holding a target — its CRC, and that its
/// stream inflates to exactly its blocks — writing nothing; it throws
/// PreconditionError.
class CheckpointLoad {
 public:
  CheckpointLoad(const std::string& path, int bx, int by, int bz, int bs, double extent,
                 std::vector<Block*> targets);

  /// Writes the checked blobs into their target blocks.
  void restore() const;
  [[nodiscard]] CheckpointClock clock() const noexcept { return clock_; }

 private:
  ContainerReader file_;
  std::vector<Block*> targets_;
  std::vector<std::size_t> needed_;  ///< blobs holding a target block
  CheckpointClock clock_;
};

/// Serializes grid state + a clock, the grid's one plan through
/// save_container; returns bytes written.
std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g, double time,
                                   long steps);
/// Restores into a grid of identical shape and returns the stored clock;
/// throws PreconditionError on any mismatch or corruption, leaving the grid
/// untouched.
CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g);

/// The same for a simulation's grid and clock.
std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim);
void load_checkpoint(const std::string& path, Simulation& sim);

}  // namespace mpcf::io
