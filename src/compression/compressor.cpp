#include "compression/compressor.h"

#include <zlib.h>

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "compression/sparse_coder.h"

namespace mpcf::compression {

namespace {

/// zlib effort of the entropy stage (the level the paper's dumps used).
constexpr int kZlibLevel = 6;

// Worst case of the significance coder: every float its own value run, so
// per float one zero-run varint, one value-run varint and the 4 payload
// bytes, plus the leading length varint. Anything beyond this bound in a
// stream directory is corruption, not data.
std::size_t sparse_bound(std::size_t nfloats) {
  return 16 + nfloats * (2 + sizeof(float));
}

/// Exact inverse of encode_stream into `out[0, nfloats)`. Every size is
/// validated against the expected coefficient count before it is trusted:
/// a truncated or corrupt stream throws PreconditionError naming its index,
/// it never yields zero-filled cubes or writes outside `out`.
void decode_stream(const CompressedQuantity::Stream& stream, float* out,
                   std::size_t nfloats, std::size_t stream_index) {
  const std::string ctx = "stream " + std::to_string(stream_index);
  if (stream.raw_bytes > sparse_bound(nfloats))
    throw PreconditionError("decode_stream (" + ctx + "): directory raw size " +
                            std::to_string(stream.raw_bytes) +
                            " exceeds the sparse bound for " + std::to_string(nfloats) +
                            " coefficients");
  std::vector<std::uint8_t> sparse(static_cast<std::size_t>(stream.raw_bytes));
  uLongf len = static_cast<uLongf>(sparse.size());
  const int rc = uncompress(sparse.data(), &len, stream.data.data(),
                            static_cast<uLong>(stream.data.size()));
  if (rc != Z_OK || len != sparse.size())
    throw PreconditionError("decode_stream (" + ctx + "): uncompress failed (rc " +
                            std::to_string(rc) + ", got " + std::to_string(len) + " of " +
                            std::to_string(sparse.size()) + " bytes)");
  sparse_decode(sparse.data(), sparse.size(), out, nfloats, stream_index);
}

}  // namespace

void encode_stream(const float* coeffs, std::size_t n, CompressedQuantity::Stream& stream) {
  const std::vector<std::uint8_t> sparse = sparse_encode(coeffs, n);
  uLongf len = compressBound(static_cast<uLong>(sparse.size()));
  stream.data.resize(len);
  const int rc = compress2(stream.data.data(), &len, sparse.data(),
                           static_cast<uLong>(sparse.size()), kZlibLevel);
  require(rc == Z_OK, "encode_stream: compress2 failed (rc " + std::to_string(rc) + ")");
  stream.data.resize(len);
  stream.raw_bytes = sparse.size();
}

void gather_block_quantity(const Block& block, int bs, const CompressionParams& params,
                           float* cube) {
  std::size_t o = 0;
  for (int iz = 0; iz < bs; ++iz)
    for (int iy = 0; iy < bs; ++iy)
      for (int ix = 0; ix < bs; ++ix, ++o) {
        const Cell& c = block(ix, iy, iz);
        if (params.derive_pressure) {
          // Near-vacuum cells (e.g. freshly floored by the positivity guard)
          // must not turn the kinetic-energy division into inf/NaN
          // coefficients that poison the whole wavelet stream.
          const float rho = std::max(static_cast<float>(c.rho), 1e-20f);
          const float ke = 0.5f * (c.ru * c.ru + c.rv * c.rv + c.rw * c.rw) / rho;
          cube[o] = (c.E - ke - c.P) / c.G;
        } else {
          cube[o] = c.q(params.quantity);
        }
      }
}

std::uint64_t CompressedQuantity::uncompressed_bytes() const {
  std::uint64_t blocks = 0;
  for (const auto& s : streams) blocks += s.block_ids.size();
  return blocks * static_cast<std::uint64_t>(block_size) * block_size * block_size *
         sizeof(float);
}

std::uint64_t CompressedQuantity::compressed_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : streams) total += s.data.size();
  return total;
}

double CompressedQuantity::compression_rate() const {
  const std::uint64_t c = compressed_bytes();
  return c == 0 ? 0.0 : static_cast<double>(uncompressed_bytes()) / static_cast<double>(c);
}

Field3D<float> decompress_to_field(const CompressedQuantity& cq) {
  const int bs = cq.block_size;
  Field3D<float> out(cq.bx * bs, cq.by * bs, cq.bz * bs);
  const BlockIndexer indexer(cq.bx, cq.by, cq.bz);
  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
  const std::size_t cube_bytes = cube_floats * sizeof(float);

  for (std::size_t si = 0; si < cq.streams.size(); ++si) {
    const auto& stream = cq.streams[si];
    if (stream.block_ids.empty()) continue;
    const std::size_t nfloats = stream.block_ids.size() * cube_floats;
    std::vector<float> coeffs(nfloats);
    decode_stream(stream, coeffs.data(), nfloats, si);
    Field3D<float> cube(bs, bs, bs);
    for (std::size_t b = 0; b < stream.block_ids.size(); ++b) {
      std::memcpy(cube.data(), coeffs.data() + b * cube_floats, cube_bytes);
      wavelet::inverse_3d(cube.view(), cq.levels);
      const std::uint32_t id = stream.block_ids[b];
      require(id < static_cast<std::uint32_t>(indexer.count()),
              "decompress_to_field (stream " + std::to_string(si) + "): block id " +
                  std::to_string(id) + " out of range for " + std::to_string(indexer.count()) +
                  " blocks");
      int bxc, byc, bzc;
      indexer.coords(static_cast<int>(id), bxc, byc, bzc);
      for (int iz = 0; iz < bs; ++iz)
        for (int iy = 0; iy < bs; ++iy)
          for (int ix = 0; ix < bs; ++ix)
            out(bxc * bs + ix, byc * bs + iy, bzc * bs + iz) = cube(ix, iy, iz);
    }
  }
  return out;
}

void decompress_quantity(const CompressedQuantity& cq, Grid& grid) {
  require(!cq.derived_pressure,
          "decompress_quantity: derived pressure cannot be scattered back");
  require(grid.blocks_x() == cq.bx && grid.blocks_y() == cq.by &&
              grid.blocks_z() == cq.bz && grid.block_size() == cq.block_size,
          "decompress_quantity: grid shape mismatch");
  require(cq.quantity >= 0 && cq.quantity < kNumQuantities,
          "decompress_quantity: quantity " + std::to_string(cq.quantity) + " out of range");
  const Field3D<float> field = decompress_to_field(cq);
  const int nx = grid.cells_x(), ny = grid.cells_y(), nz = grid.cells_z();
  for (int iz = 0; iz < nz; ++iz)
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix)
        grid.cell(ix, iy, iz).q(cq.quantity) = field(ix, iy, iz);
}

}  // namespace mpcf::compression
