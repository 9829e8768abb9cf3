// Sparse significance coder — the first half of the dump pipeline's entropy
// stage (compression::encode_stream; zlib runs over its output), in the
// spirit of the zerotree/SPIHT coders the paper names as alternatives to
// plain zlib (Section 5): after decimation most detail coefficients are
// exactly zero, so the stream is encoded as a run-length significance map
// plus the packed remaining values. Decoding is bit-exact for any input
// (the lossy step is the decimation, never the encoding): only the all-zero
// bit pattern counts as zero, so -0.0f is kept as a value.
//
// Format: varint value_count | varint zero-run/value-run lengths alternating
//         (starting with a zero run, possibly of length 0) | packed floats.
//
// Decoding is hardened against corrupt streams: every run length is bounds-
// checked against the expected output size *before* anything is written
// (overflow-safe — a pair of huge runs whose sum wraps to the expected total
// must not drive out-of-bounds writes), and errors name the stream index the
// caller is decoding so a corrupt multi-stream dump points at the bad blob.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace mpcf::compression {

/// Sentinel for "not decoding a directory stream" in error messages.
inline constexpr std::size_t kNoStreamIndex = std::numeric_limits<std::size_t>::max();

/// Encodes `n` floats (mostly zeros) into the sparse representation.
[[nodiscard]] std::vector<std::uint8_t> sparse_encode(const float* data, std::size_t n);

/// Exact inverse; `n` must match the encoded length. Throws
/// PreconditionError naming `stream_index` (when given) on truncated or
/// corrupt input; never writes outside `out[0, n)`.
void sparse_decode(const std::uint8_t* encoded, std::size_t encoded_bytes, float* out,
                   std::size_t n, std::size_t stream_index = kNoStreamIndex);

inline void sparse_decode(const std::vector<std::uint8_t>& encoded, float* out,
                          std::size_t n, std::size_t stream_index = kNoStreamIndex) {
  sparse_decode(encoded.data(), encoded.size(), out, n, stream_index);
}

/// Encoded size without materializing (for quick rate estimates).
[[nodiscard]] std::size_t sparse_encoded_size(const float* data, std::size_t n);

}  // namespace mpcf::compression
