#include "compression/pipeline.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/chunk_loop.h"
#include "common/error.h"
#include "io/compressed_file.h"

namespace mpcf::compression {

namespace {

/// Inclusive-balanced contiguous split: chunk c covers
/// [c*n/k, (c+1)*n/k) — deterministic, gap-free, sizes differ by at most 1.
int chunk_begin(int blocks, int nchunks, int c) {
  return static_cast<int>(static_cast<std::int64_t>(blocks) * c / nchunks);
}

/// A node grid's block ids: its own block order.
std::vector<std::uint32_t> own_ids(const Grid& grid) {
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(grid.block_count()));
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

/// The dump's fields; no streams.
CompressedQuantity shape_of(const Grid& grid, const CompressionParams& params) {
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

/// Worker and chunk counts and the per-worker clocks of a one-plan dump.
void report(const io::BlobPlan& plan, DumpWorkers& workers, PipelineStats* stats) {
  if (stats == nullptr) return;
  stats->chunks = static_cast<int>(plan.blobs);
  stats->workers = chunk_workers(stats->chunks);
  workers.clocks.resize(static_cast<std::size_t>(stats->workers));
  stats->worker_times = std::move(workers.clocks);
}

}  // namespace

DumpWorkers::DumpWorkers()
    : scratch(static_cast<std::size_t>(thread_count())),
      clocks(scratch.size()),
      stored(scratch.size(), 0) {}

io::BlobPlan dump_plan(const Grid& grid, const CompressionParams& params,
                       std::vector<std::uint32_t> ids, DumpWorkers& workers) {
  require(ids.size() == static_cast<std::size_t>(grid.block_count()),
          "dump_plan: one global id per block required");
  const int chunks = pipeline_chunk_count(grid.block_count(), thread_count());
  io::BlobPlan plan;
  plan.blobs = static_cast<std::size_t>(chunks);
  plan.ids = ids.size();
  plan.encode = [&grid, &params, &workers, ids = std::move(ids), chunks](int c, int w) {
    const int bs = grid.block_size();
    const int levels = wavelet::max_levels(bs);
    const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
    const auto wi = static_cast<std::size_t>(w);
    require(wi < workers.scratch.size(),
            "dump_plan: worker " + std::to_string(w) + " of a save wider than its " +
                std::to_string(workers.scratch.size()) + " DumpWorkers");
    std::vector<float>& cubes = workers.scratch[wi];
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
    workers.clocks[wi].dec += t.seconds();

    t.restart();
    CompressedQuantity::Stream stream;
    encode_stream(cubes.data(), cubes.size(), stream);
    stream.block_ids.assign(ids.begin() + begin, ids.begin() + end);
    workers.clocks[wi].enc += t.seconds();
    workers.stored[wi] += stream.data.size();
    return io::stream_blob(std::move(stream));
  };
  return plan;
}

int pipeline_chunk_count(int block_count, int workers) {
  if (block_count <= 0) return 0;
  return std::min(block_count, workers * 4);
}

CompressedQuantity compress_quantity_pipelined(const Grid& grid,
                                               const CompressionParams& params,
                                               PipelineStats* stats) {
  DumpWorkers workers;
  const io::BlobPlan plan = dump_plan(grid, params, own_ids(grid), workers);
  CompressedQuantity cq = shape_of(grid, params);
  for (io::Blob& blob : io::encode_blobs(plan)) {
    CompressedQuantity::Stream& s = cq.streams.emplace_back();
    s.block_ids = std::move(blob.entry.ids);
    s.raw_bytes = blob.entry.raw_size;
    s.data = std::move(blob.pieces.front());
  }
  report(plan, workers, stats);
  if (stats) {
    stats->uncompressed_bytes = cq.uncompressed_bytes();
    stats->compressed_bytes = cq.compressed_bytes();
  }
  return cq;
}

double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats) {
  DumpWorkers workers;
  const std::vector<io::BlobPlan> plans{dump_plan(grid, params, own_ids(grid), workers)};
  double write_seconds = 0;
  const std::uint64_t bytes = io::save_container(path, io::dump_header(shape_of(grid, params)),
                                                 plans, &write_seconds);
  const std::uint64_t compressed =
      std::accumulate(workers.stored.begin(), workers.stored.end(), std::uint64_t{0});
  const std::uint64_t uncompressed = static_cast<std::uint64_t>(grid.block_count()) *
                                     grid.block_size() * grid.block_size() *
                                     grid.block_size() * sizeof(float);
  report(plans.front(), workers, stats);
  if (stats) {
    stats->write_seconds = write_seconds;
    stats->bytes_written = bytes;
    stats->uncompressed_bytes = uncompressed;
    stats->compressed_bytes = compressed;
  }
  return compressed == 0 ? 0.0 : static_cast<double>(uncompressed) / static_cast<double>(compressed);
}

}  // namespace mpcf::compression
