// On-disk format for compressed quantity dumps: one file per quantity per
// step, exactly as in the paper (Section 6, "MPI parallel file I/O is
// employed to generate a single compressed file per quantity"). Streams are
// placed at offsets computed by an exclusive prefix sum over their encoded
// sizes — the serial equivalent of the MPI_Exscan + collective-write scheme;
// the cluster layer reuses this writer through the same offset discipline.
//
// The writer is the two-phase aggregator of the dump pipeline (DESIGN.md
// §13): phase one lays out the directory and runs the exclusive scan over
// the blob sizes; phase two streams the blobs through a coalescing buffer
// that issues large 4 MiB writes starting at a 4 KiB-aligned file offset
// (the directory is zero-padded up to the alignment boundary; the pad is
// covered by the header CRC so bit rot there is still caught).
//
// Files are written atomically (io::SafeFile: temp + fsync + rename) and
// are integrity-checked: a CRC32 over the header + directory and one CRC32
// per stream blob, so truncation, torn tails, and single-bit rot all fail
// loudly at read time. The reader parses through a bounds-checked cursor —
// corrupt directory fields (stream counts, id counts, blob offsets/sizes,
// raw sizes) are rejected before any allocation or copy.
//
// v3 layout ("MPCFCQ03", the only version written or read; little endian):
//   magic "MPCFCQ03"                                    8 bytes
//   u32 header_crc   CRC32 of header+directory+pad      4
//   i32 bx, by, bz, block_size, levels, quantity        24
//   f32 eps, u8 derived_pressure, u8 coder, u8 pad[2]   8
//   u32 codec_fourcc                                    4
//   u32 stream_count                                    4
//   per stream: u32 id_count, u64 raw_bytes, u64 size,  32 + 4*id_count
//               u64 offset (from file start),
//               u32 blob_crc, u32 ids[]
//   zero pad to the next 4 KiB boundary (CRC-covered)
//   stream blobs at their offsets
//
// The coder byte and fourcc name the entropy stage of the blobs. Every dump
// carries the one stage compression::encode_stream implements (sparse
// significance coder, then zlib: coder 1, "SPZL"); any other pair — the
// other codecs of earlier writers — and the pre-v3 magics ("MPCFCQ01",
// "MPCFCQ02") are rejected with an error naming the unsupported codec or
// version.
#pragma once

#include <string>

#include "compression/compressor.h"

namespace mpcf::io {

/// Writes a compressed quantity dump atomically; returns total bytes.
std::uint64_t write_compressed(const std::string& path,
                               const compression::CompressedQuantity& cq);

/// Reads a dump written by write_compressed; throws PreconditionError on
/// corruption, truncation or an unsupported version or codec.
[[nodiscard]] compression::CompressedQuantity read_compressed(const std::string& path);

}  // namespace mpcf::io
