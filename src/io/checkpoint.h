// Bitwise-exact checkpoint/restart of a simulation. The paper's I/O
// challenge notes that serializing the full state of a production run means
// Petabytes — which is why analysis dumps go through the lossy wavelet
// pipeline. Restart files, however, must be exact AND trustworthy: this
// module stores the raw block storage zlib-compressed (lossless) together
// with the simulation clock, written atomically through io::SafeFile
// (temp + fsync + rename) and protected by CRC32 over the header and every
// compressed chunk, so a crash mid-write can never leave a half-written file
// at the final path and silent bit-rot is detected at load instead of being
// restored into the solver.
//
// The state is cut into chunks of whole blocks in SFC order, about 1 MiB of
// cells each; the partition is a pure function of the grid shape. Each
// chunk's cells are stored as 28 byte planes (plane k holds byte k of every
// cell) deflated as one zlib stream with the Z_RLE strategy. Chunks are
// encoded and decoded in parallel on the caller's omp_get_max_threads()
// workers (common/chunk_loop.h); the file bytes do not depend on the worker
// count.
//
// v3 layout ("MPCFCKP3", written by save_checkpoint; all little endian):
//   off  0  magic "MPCFCKP3"                                  8 bytes
//   off  8  u32 header_crc   CRC32 of bytes [12, 56 + 12 n)   4
//   off 12  i32 bx, by, bz, bs                               16
//   off 28  f64 time, extent                                 16
//   off 44  i64 steps                                         8
//   off 52  u32 n            chunk count                      4
//   off 56  per chunk: u64 comp_bytes, u32 crc (of the stream) 12 n
//           the chunk streams, back to back in chunk order
//
// The chunk count and every chunk size are bounds-checked against the actual
// file and grid before any allocation. v3 is the only version read: v1
// ("MPCFCKP1") and v2 ("MPCFCKP2", one stream over the raw cells) files are
// rejected with an error naming their version.
#pragma once

#include <string>

#include "core/simulation.h"

namespace mpcf::io {

/// Simulation clock recovered from a checkpoint.
struct CheckpointClock {
  double time = 0;
  long steps = 0;
};

/// Serializes grid state + a clock; returns bytes written. Used directly by
/// the cluster layer (which checkpoints its gathered global grid).
std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps);

/// Restores into a grid of identical shape (throws PreconditionError on any
/// mismatch, truncation, or CRC failure, leaving the grid untouched) and
/// returns the stored clock.
CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g);

/// Serializes grid state + simulation clock; returns bytes written.
std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim);

/// Restores into a simulation of identical shape (throws on mismatch).
void load_checkpoint(const std::string& path, Simulation& sim);

}  // namespace mpcf::io
