#include "compression/sparse_coder.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace mpcf::compression {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t v = 0;
  int shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return v;
    shift += 7;
    require(shift < 64, "sparse_decode: varint overflow");
  }
  throw PreconditionError("sparse_decode: truncated varint");
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// True only for +0.0f: the decoder's zero runs write +0.0f, so -0.0f (which
/// compares equal to it) must travel as a value to keep the coder bit-exact.
bool is_positive_zero(float v) { return std::bit_cast<std::uint32_t>(v) == 0; }

/// Walks the alternating zero/non-zero run structure of the data.
template <typename OnRuns, typename OnValue>
void scan_runs(const float* data, std::size_t n, OnRuns&& on_runs, OnValue&& on_value) {
  std::size_t i = 0;
  while (i < n) {
    std::size_t zstart = i;
    while (i < n && is_positive_zero(data[i])) ++i;
    const std::size_t zeros = i - zstart;
    std::size_t vstart = i;
    while (i < n && !is_positive_zero(data[i])) ++i;
    const std::size_t values = i - vstart;
    on_runs(zeros, values);
    for (std::size_t k = vstart; k < vstart + values; ++k) on_value(data[k]);
  }
}

}  // namespace

std::vector<std::uint8_t> sparse_encode(const float* data, std::size_t n) {
  std::vector<std::uint8_t> out;
  out.reserve(n / 8 + 64);
  put_varint(out, n);
  std::vector<float> values;
  scan_runs(
      data, n,
      [&](std::size_t zeros, std::size_t nvals) {
        put_varint(out, zeros);
        put_varint(out, nvals);
      },
      [&](float v) { values.push_back(v); });
  // mpcf-lint: allow(reinterpret-cast): float->byte view of the survivor values for the output stream
  const auto* vb = reinterpret_cast<const std::uint8_t*>(values.data());
  out.insert(out.end(), vb, vb + values.size() * sizeof(float));
  return out;
}

void sparse_decode(const std::uint8_t* encoded, std::size_t encoded_bytes, float* out,
                   std::size_t n, std::size_t stream_index) {
  const auto fail = [stream_index](const std::string& what) {
    std::string msg = "sparse_decode";
    if (stream_index != kNoStreamIndex)
      msg += " (stream " + std::to_string(stream_index) + ")";
    throw PreconditionError(msg + ": " + what);
  };
  const std::uint8_t* p = encoded;
  const std::uint8_t* end = p + encoded_bytes;
  const std::uint64_t total = get_varint(p, end);
  if (total != n)
    fail("length " + std::to_string(total) + " does not match the expected " +
         std::to_string(n) + " coefficients");

  // First pass: runs; values trail the run directory, so locate them by
  // replaying the directory once. Every run length is validated against the
  // remaining output budget *here*, before any write: a corrupt stream whose
  // run sum only reaches `total` by uint64 wraparound must fail, not smash
  // the output buffer.
  struct Run {
    std::uint64_t zeros, values;
  };
  std::vector<Run> runs;
  std::uint64_t seen = 0, value_count = 0;
  while (seen < total) {
    const std::uint64_t z = get_varint(p, end);
    if (z > total - seen)
      fail("zero run of " + std::to_string(z) + " overruns the remaining " +
           std::to_string(total - seen) + " coefficients");
    seen += z;
    const std::uint64_t v = get_varint(p, end);
    if (v > total - seen)
      fail("value run of " + std::to_string(v) + " overruns the remaining " +
           std::to_string(total - seen) + " coefficients");
    seen += v;
    value_count += v;
    runs.push_back({z, v});
  }
  // value_count <= total <= n here, so the byte product cannot overflow.
  if (static_cast<std::size_t>(end - p) != value_count * sizeof(float))
    fail("value payload holds " + std::to_string(end - p) + " bytes, expected " +
         std::to_string(value_count * sizeof(float)));

  std::size_t oi = 0;
  for (const Run& r : runs) {
    for (std::uint64_t k = 0; k < r.zeros; ++k) out[oi++] = 0.0f;
    std::memcpy(out + oi, p, r.values * sizeof(float));
    p += r.values * sizeof(float);
    oi += r.values;
  }
}

std::size_t sparse_encoded_size(const float* data, std::size_t n) {
  std::size_t size = varint_size(n);
  scan_runs(
      data, n,
      [&](std::size_t zeros, std::size_t nvals) {
        size += varint_size(zeros) + varint_size(nvals) + nvals * sizeof(float);
      },
      [](float) {});
  return size;
}

}  // namespace mpcf::compression
