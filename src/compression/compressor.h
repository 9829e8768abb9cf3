// Wavelet-based data compression pipeline (paper Section 5, Fig. 3):
//
//   per block:   in-place forward wavelet transform  (FWT)
//                lossy decimation of small details   (DEC)
//   per chunk:   concatenation of the surviving coefficient cubes of a run
//                of blocks, lossless encoding of the whole stream: sparse
//                significance coder, then zlib (ENC)
//   per rank:    the chunks as one blob plan, every rank's plan streamed
//                into one file (compression/pipeline.h, io/container.h,
//                ClusterSimulation::dump_collective)
//
// The compressor is compression/pipeline.h (DESIGN.md §13). Dumps are
// performed for one quantity at a time (pressure and Gamma in the production
// runs) to cap the memory overhead at ~10% of the simulation footprint.
#pragma once

#include <cstdint>
#include <vector>

#include "core/profile.h"
#include "grid/grid.h"
#include "wavelet/interp_wavelet.h"

namespace mpcf::compression {

/// The wavelet transform always runs to the coarsest level the block size
/// allows, the entropy stage is fixed (encode_stream), and a dump runs on
/// the caller's thread_count() workers, so the only choices are what
/// to dump and how hard to decimate.
struct CompressionParams {
  float eps = 1e-2f;  ///< decimation threshold
  wavelet::ThresholdMode mode = wavelet::ThresholdMode::kUniform;
  /// Dumped quantities are either raw conserved components or derived
  /// pressure; the paper dumps p and Gamma.
  bool derive_pressure = false;  ///< if true, `quantity` is ignored: dump p
  int quantity = Q_G;
};

/// Per-worker wall-clock split of one dump (paper Table 4 / Fig. 7-right).
struct WorkerTimes {
  double dec = 0;  ///< FWT + decimation
  double enc = 0;  ///< entropy stage (encode_stream)
};

/// One quantity, compressed: a set of streams, each an encoded blob of
/// concatenated decimated coefficient cubes plus the ids of the blocks it
/// contains (in stream order).
struct CompressedQuantity {
  int bx = 0, by = 0, bz = 0;  ///< grid shape in blocks
  int block_size = 0;
  int levels = 0;
  float eps = 0;
  bool derived_pressure = false;
  int quantity = 0;

  struct Stream {
    std::vector<std::uint32_t> block_ids;
    std::vector<std::uint8_t> data;  ///< encode_stream output
    std::uint64_t raw_bytes = 0;     ///< significance-coded size, before zlib
  };
  std::vector<Stream> streams;

  [[nodiscard]] std::uint64_t uncompressed_bytes() const;
  [[nodiscard]] std::uint64_t compressed_bytes() const;
  /// The headline metric: uncompressed field bytes / encoded bytes.
  [[nodiscard]] double compression_rate() const;
};

/// Extracts one block's scalar quantity (or derived pressure) into a dense
/// bs^3 cube in x-fastest order; the derived-pressure path guards the
/// kinetic-energy division against near-vacuum densities.
void gather_block_quantity(const Block& block, int bs, const CompressionParams& params,
                           float* cube);

/// The entropy stage (ENC) of every dump: the sparse significance coder
/// (sparse_coder.h), then zlib at level 6. Encodes `n` decimated
/// coefficients into `stream.data` and sets `stream.raw_bytes` to the
/// significance-coded size. Bit-exact: decoding returns the same bits,
/// signed zeros included; the lossy step is the decimation alone.
void encode_stream(const float* coeffs, std::size_t n, CompressedQuantity::Stream& stream);

/// Inverse pipeline: decodes, inverse-transforms and writes the quantity
/// back into `grid` (grid shape must match). Derived pressure cannot be
/// scattered back into conserved variables and is written into a Field3D.
void decompress_quantity(const CompressedQuantity& cq, Grid& grid);

/// Decompresses into a standalone cell-indexed scalar field (works for
/// derived quantities too). Throws PreconditionError on a block id outside
/// the shape or a stream that does not decode to its blocks.
[[nodiscard]] Field3D<float> decompress_to_field(const CompressedQuantity& cq);

}  // namespace mpcf::compression
