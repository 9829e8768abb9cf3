// Bitwise-exact checkpoint/restart of a simulation. The paper's I/O
// challenge notes that serializing the full state of a production run means
// Petabytes — which is why analysis dumps go through the lossy wavelet
// pipeline. Restart files, however, must be exact AND trustworthy: this
// module stores the raw block storage zlib-compressed (lossless) together
// with the simulation clock, written atomically through io::SafeFile
// (temp + fsync + rename) and protected by CRC32 over both the header and
// the payload, so a crash mid-write can never leave a half-written file at
// the final path and silent bit-rot is detected at load instead of being
// restored into the solver.
//
// v2 layout ("MPCFCKP2", written by save_checkpoint; all little endian):
//   off  0  magic "MPCFCKP2"                                   8 bytes
//   off  8  u32 header_crc      CRC32 of bytes [12, 72)        4
//   off 12  i32 bx, by, bz, bs                                16
//   off 28  f64 time, extent                                  16
//   off 44  i64 steps                                          8
//   off 52  u64 raw_bytes       uncompressed payload size      8
//   off 60  u64 comp_bytes      zlib blob size                 8
//   off 68  u32 payload_crc     CRC32 of the zlib blob         4
//   off 72  zlib blob of all cells, SFC order                  comp_bytes
//
// Every header field is bounds-checked against the actual file and grid
// before any allocation. v2 is the only version read: a v1 file
// ("MPCFCKP1", no CRCs) is rejected with an error naming its version.
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
/// mismatch, truncation, or CRC failure) and returns the stored clock.
CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g);

/// Serializes grid state + simulation clock; returns bytes written.
std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim);

/// Restores into a simulation of identical shape (throws on mismatch).
void load_checkpoint(const std::string& path, Simulation& sim);

}  // namespace mpcf::io
