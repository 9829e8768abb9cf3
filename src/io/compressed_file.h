// Compressed quantity dumps (`.cq`): one file per quantity per step, as in
// the paper (Section 6). A dump is the payload "SPZL" over the one container
// (io/container.h, DESIGN.md §8): each stream of decimated wavelet cubes,
// encoded by compression::encode_stream, is one blob under its blocks'
// global ids, its significance-coded size the raw size. The record holds
// i32 levels, i32 quantity, f32 eps and u8 derived_pressure. The cluster
// layer writes the same container collectively (dump_collective).
#pragma once

#include <string>

#include "compression/compressor.h"
#include "io/container.h"

namespace mpcf::io {

/// The container header of a dump with cq's shape and parameters (its
/// streams are not read).
[[nodiscard]] ContainerHeader dump_header(const compression::CompressedQuantity& cq);

/// A stream as a blob: its ids, sizes and CRC, its bytes moved in.
[[nodiscard]] Blob stream_blob(compression::CompressedQuantity::Stream&& stream);

/// Writes a compressed quantity dump atomically; returns total bytes.
std::uint64_t write_compressed(const std::string& path,
                               const compression::CompressedQuantity& cq);

/// Reads a dump written by write_compressed; throws PreconditionError on
/// corruption, truncation or an unsupported version or payload.
[[nodiscard]] compression::CompressedQuantity read_compressed(const std::string& path);

}  // namespace mpcf::io
