#include "compression/compressor.h"

#include <omp.h>
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

CompressedQuantity compress_quantity(const Grid& grid, const CompressionParams& params,
                                     std::vector<WorkerTimes>* times) {
  const int bs = grid.block_size();
  const int levels = wavelet::max_levels(bs);

  CompressedQuantity cq;
  cq.bx = grid.blocks_x();
  cq.by = grid.blocks_y();
  cq.bz = grid.blocks_z();
  cq.block_size = bs;
  cq.levels = levels;
  cq.eps = params.eps;
  cq.derived_pressure = params.derive_pressure;
  cq.quantity = params.quantity;

  // Streams are sized for the maximum team; the runtime may grant fewer
  // threads, and threads past the block count contribute nothing — both
  // cases are pruned below so no empty stream reaches the file pipeline.
  const int nthreads = omp_get_max_threads();
  cq.streams.resize(nthreads);
  if (times) {
    times->clear();
    times->resize(nthreads);
  }
  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
  int team_size = nthreads;

#pragma omp parallel
  {
    const int tid = omp_get_thread_num();
    require(tid < static_cast<int>(cq.streams.size()),
            "compress_quantity: thread id exceeds stream count");
#pragma omp single
    team_size = omp_get_num_threads();
    auto& stream = cq.streams[tid];
    // Dedicated per-thread decimation buffer (paper Section 5): coefficient
    // cubes of all blocks this worker processes, concatenated.
    std::vector<std::uint8_t> buffer;
    Field3D<float> cube(bs, bs, bs);
    Timer t;

#pragma omp for schedule(dynamic, 1)
    for (int i = 0; i < grid.block_count(); ++i) {
      gather_block_quantity(grid.block(i), bs, params, cube.data());
      wavelet::forward_3d_simd(cube.view(), levels);
      wavelet::decimate(cube.view(), levels, params.eps, params.mode);
      // mpcf-lint: allow(reinterpret-cast): float->byte view of the decimated cube for the entropy coder
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(cube.data());
      buffer.insert(buffer.end(), bytes, bytes + cube_floats * sizeof(float));
      stream.block_ids.push_back(static_cast<std::uint32_t>(i));
    }
    if (times) (*times)[tid].dec = t.seconds();

    // Encode the concatenated stream in one shot: detail coefficients of
    // adjacent blocks assume similar ranges, so a single stream compresses
    // better than per-block encoding (paper Section 5).
    t.restart();
    if (!buffer.empty()) {
      // mpcf-lint: allow(reinterpret-cast): byte->float view; buffer holds packed float cubes by construction
      const auto* floats = reinterpret_cast<const float*>(buffer.data());
      encode_stream(floats, buffer.size() / sizeof(float), stream);
    }
    if (times) (*times)[tid].enc = t.seconds();
  }

  // Report only the workers that actually ran, and drop streams that carry
  // no blocks (idle workers): empty streams would otherwise travel through
  // the collective file pipeline as zero-byte blobs.
  if (times) times->resize(team_size);
  std::erase_if(cq.streams, [](const CompressedQuantity::Stream& s) {
    return s.block_ids.empty();
  });
  return cq;
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
      int bxc, byc, bzc;
      indexer.coords(static_cast<int>(stream.block_ids[b]), bxc, byc, bzc);
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
  const Field3D<float> field = decompress_to_field(cq);
  const int nx = grid.cells_x(), ny = grid.cells_y(), nz = grid.cells_z();
  for (int iz = 0; iz < nz; ++iz)
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix)
        grid.cell(ix, iy, iz).q(cq.quantity) = field(ix, iy, iz);
}

void assemble_collective(CompressedQuantity& global, std::vector<RankStreams> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const RankStreams& a, const RankStreams& b) {
              return a.offset != b.offset ? a.offset < b.offset : a.rank < b.rank;
            });
  std::uint64_t expected = 0;
  for (auto& part : parts) {
    require(part.offset == expected,
            "assemble_collective: rank " + std::to_string(part.rank) +
                " landed at offset " + std::to_string(part.offset) +
                " but the scan places it at " + std::to_string(expected) +
                " (gap or overlap in the collective layout)");
    for (auto& stream : part.streams) {
      expected += stream.data.size();
      global.streams.push_back(std::move(stream));
    }
  }
}

}  // namespace mpcf::compression
