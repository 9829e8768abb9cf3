#include "compression/pipeline.h"

#include <omp.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/chunk_loop.h"
#include "common/error.h"
#include "io/compressed_file.h"

namespace mpcf::compression {

namespace {

int resolve_workers(const CompressionParams& params) {
  require(params.workers >= 0, "CompressionParams: negative worker count " +
                                   std::to_string(params.workers));
  return params.workers > 0 ? params.workers : omp_get_max_threads();
}

/// Inclusive-balanced contiguous split: chunk c covers
/// [c*n/k, (c+1)*n/k) — deterministic, gap-free, sizes differ by at most 1.
int chunk_begin(int blocks, int nchunks, int c) {
  return static_cast<int>(static_cast<std::int64_t>(blocks) * c / nchunks);
}

/// A dump's stage graph: the shape record, and chunk c as FWT + decimation
/// of its blocks' cubes into the worker's scratch, then the entropy stage.
/// Workers steal chunk *indices* (dynamic load balance: encode cost is
/// content-dependent), but chunk c's stream always goes to slot c of the
/// dump, so the file layout never depends on the schedule.
struct ChunkPlan {
  const Grid& grid;
  const CompressionParams& params;
  int requested;
  int chunks;
  int workers;
  std::vector<std::vector<float>> scratch;  ///< one cube buffer per worker
  std::vector<WorkerTimes> clocks;          ///< per worker

  ChunkPlan(const Grid& g, const CompressionParams& p)
      : grid(g),
        params(p),
        requested(resolve_workers(p)),
        chunks(pipeline_chunk_count(g.block_count(), requested)),
        workers(chunk_workers(chunks, requested)),
        scratch(static_cast<std::size_t>(workers)),
        clocks(static_cast<std::size_t>(workers)) {}

  /// The dump's fields; no streams.
  [[nodiscard]] CompressedQuantity shape() const {
    CompressedQuantity cq;
    cq.bx = grid.blocks_x();
    cq.by = grid.blocks_y();
    cq.bz = grid.blocks_z();
    cq.block_size = grid.block_size();
    cq.levels = wavelet::max_levels(grid.block_size());
    cq.eps = params.eps;
    cq.derived_pressure = params.derive_pressure;
    cq.quantity = params.quantity;
    return cq;
  }

  /// Chunk c on worker w.
  [[nodiscard]] CompressedQuantity::Stream encode(int c, int w) {
    const int bs = grid.block_size();
    const int levels = wavelet::max_levels(bs);
    const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
    std::vector<float>& cubes = scratch[static_cast<std::size_t>(w)];
    const int begin = chunk_begin(grid.block_count(), chunks, c);
    const int end = chunk_begin(grid.block_count(), chunks, c + 1);
    cubes.resize(static_cast<std::size_t>(end - begin) * cube_floats);

    Timer t;
    for (int b = begin; b < end; ++b) {
      float* cube = cubes.data() + static_cast<std::size_t>(b - begin) * cube_floats;
      gather_block_quantity(grid.block(b), bs, params, cube);
      FieldView3D<float> view(cube, bs, bs, bs);
      wavelet::forward_3d_simd(view, levels);
      wavelet::decimate(view, levels, params.eps, params.mode);
    }
    clocks[static_cast<std::size_t>(w)].dec += t.seconds();

    t.restart();
    CompressedQuantity::Stream stream;
    encode_stream(cubes.data(), cubes.size(), stream);
    stream.block_ids.resize(static_cast<std::size_t>(end - begin));
    std::iota(stream.block_ids.begin(), stream.block_ids.end(),
              static_cast<std::uint32_t>(begin));
    clocks[static_cast<std::size_t>(w)].enc += t.seconds();
    return stream;
  }

  /// Worker and chunk counts and the per-worker clocks into `stats`.
  void report(PipelineStats* stats) {
    if (stats == nullptr) return;
    stats->workers = workers;
    stats->chunks = chunks;
    stats->worker_times = std::move(clocks);
  }
};

}  // namespace

int pipeline_chunk_count(int block_count, int workers) {
  if (block_count <= 0) return 0;
  return std::min(block_count, workers * 4);
}

CompressedQuantity compress_quantity_pipelined(const Grid& grid,
                                               const CompressionParams& params,
                                               PipelineStats* stats) {
  ChunkPlan plan(grid, params);
  CompressedQuantity cq = plan.shape();
  cq.streams.resize(static_cast<std::size_t>(plan.chunks));
  for_each_chunk(plan.chunks, plan.requested, [&](int c, int w) {
    cq.streams[static_cast<std::size_t>(c)] = plan.encode(c, w);
  });
  plan.report(stats);
  if (stats) {
    stats->uncompressed_bytes = cq.uncompressed_bytes();
    stats->compressed_bytes = cq.compressed_bytes();
  }
  return cq;
}

double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats) {
  ChunkPlan plan(grid, params);
  const CompressedQuantity cq = plan.shape();
  double write_seconds = 0;
  std::uint64_t compressed = 0;
  Timer t;
  io::ContainerWriter out(path, io::dump_header(cq), static_cast<std::size_t>(plan.chunks),
                          static_cast<std::uint64_t>(grid.block_count()));
  write_seconds += t.seconds();
  // Each stream goes to the file once it and every stream before it are
  // encoded; stream c waits in slot c % window until then.
  std::vector<io::Blob> window(static_cast<std::size_t>(chunk_window(plan.workers)));
  const auto slot = [&](int c) -> io::Blob& {
    return window[static_cast<std::size_t>(c) % window.size()];
  };
  for_each_chunk_ordered(
      plan.chunks, plan.requested,
      [&](int c, int w) { slot(c) = io::stream_blob(plan.encode(c, w)); },
      [&](int c) {
        const io::Blob blob = std::exchange(slot(c), {});
        compressed += blob.entry.size;
        const Timer write;
        out.append(blob);
        write_seconds += write.seconds();
      });
  t.restart();
  const std::uint64_t bytes = out.commit();
  write_seconds += t.seconds();

  const std::uint64_t uncompressed = static_cast<std::uint64_t>(grid.block_count()) *
                                     grid.block_size() * grid.block_size() *
                                     grid.block_size() * sizeof(float);
  plan.report(stats);
  if (stats) {
    stats->write_seconds = write_seconds;
    stats->bytes_written = bytes;
    stats->uncompressed_bytes = uncompressed;
    stats->compressed_bytes = compressed;
  }
  return compressed == 0 ? 0.0 : static_cast<double>(uncompressed) / static_cast<double>(compressed);
}

}  // namespace mpcf::compression
