#include "compression/pipeline.h"

#include <omp.h>

#include <algorithm>
#include <numeric>

#include "common/chunk_loop.h"
#include "common/error.h"
#include "io/compressed_file.h"

namespace mpcf::compression {

namespace {

int resolve_workers(const CompressionParams& params) {
  return params.workers > 0 ? params.workers : omp_get_max_threads();
}

/// Inclusive-balanced contiguous split: chunk c covers
/// [c*n/k, (c+1)*n/k) — deterministic, gap-free, sizes differ by at most 1.
int chunk_begin(int blocks, int nchunks, int c) {
  return static_cast<int>(static_cast<std::int64_t>(blocks) * c / nchunks);
}

}  // namespace

int pipeline_chunk_count(int block_count, int workers) {
  if (block_count <= 0) return 0;
  return std::min(block_count, workers * 4);
}

CompressedQuantity compress_quantity_pipelined(const Grid& grid,
                                               const CompressionParams& params,
                                               PipelineStats* stats) {
  require(params.workers >= 0, "CompressionParams: negative worker count " +
                                   std::to_string(params.workers));
  const int bs = grid.block_size();
  const int levels = wavelet::max_levels(bs);
  const int blocks = grid.block_count();

  CompressedQuantity cq;
  cq.bx = grid.blocks_x();
  cq.by = grid.blocks_y();
  cq.bz = grid.blocks_z();
  cq.block_size = bs;
  cq.levels = levels;
  cq.eps = params.eps;
  cq.derived_pressure = params.derive_pressure;
  cq.quantity = params.quantity;

  const int requested = resolve_workers(params);
  const int nchunks = pipeline_chunk_count(blocks, requested);
  const int workers = chunk_workers(nchunks, requested);
  cq.streams.resize(nchunks);
  if (stats) {
    stats->workers = workers;
    stats->chunks = nchunks;
    stats->worker_times.assign(workers, WorkerTimes{});
  }
  if (nchunks == 0) return cq;

  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;

  // The stage graph: workers steal chunk *indices* (dynamic load balance —
  // encode cost is content-dependent), but each chunk's output always lands
  // in streams[c], so the file layout never depends on the schedule.
  std::vector<std::vector<float>> coeffs(static_cast<std::size_t>(workers));
  std::vector<WorkerTimes> clocks(workers);
  for_each_chunk(nchunks, requested, [&](int c, int w) {
    std::vector<float>& cubes = coeffs[static_cast<std::size_t>(w)];
    const int begin = chunk_begin(blocks, nchunks, c);
    const int end = chunk_begin(blocks, nchunks, c + 1);
    cubes.resize(static_cast<std::size_t>(end - begin) * cube_floats);

    Timer t;
    for (int b = begin; b < end; ++b) {
      float* cube = cubes.data() + static_cast<std::size_t>(b - begin) * cube_floats;
      gather_block_quantity(grid.block(b), bs, params, cube);
      FieldView3D<float> view(cube, bs, bs, bs);
      wavelet::forward_3d_simd(view, levels);
      wavelet::decimate(view, levels, params.eps, params.mode);
    }
    clocks[w].dec += t.seconds();

    t.restart();
    auto& stream = cq.streams[c];
    encode_stream(cubes.data(), cubes.size(), stream);
    stream.block_ids.resize(static_cast<std::size_t>(end - begin));
    std::iota(stream.block_ids.begin(), stream.block_ids.end(),
              static_cast<std::uint32_t>(begin));
    clocks[w].enc += t.seconds();
  });

  if (stats) {
    stats->worker_times = std::move(clocks);
    stats->uncompressed_bytes = cq.uncompressed_bytes();
    stats->compressed_bytes = cq.compressed_bytes();
  }
  return cq;
}

double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats) {
  const CompressedQuantity cq = compress_quantity_pipelined(grid, params, stats);
  Timer t;
  const std::uint64_t bytes = io::write_compressed(path, cq);
  if (stats) {
    stats->write_seconds = t.seconds();
    stats->bytes_written = bytes;
  }
  return cq.compression_rate();
}

}  // namespace mpcf::compression
