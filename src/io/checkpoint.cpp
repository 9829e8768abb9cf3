#include "io/checkpoint.h"

#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/chunk_loop.h"
#include "common/error.h"
#include "io/safe_file.h"

namespace mpcf::io {

namespace {

/// Raw cell bytes a blob holds at most, unless one block is larger.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// Byte planes per cell: plane k of a blob holds byte k of each of its cells.
constexpr int kPlanes = sizeof(Cell);

/// Bytes between the cells and zlib per step, and between the file and
/// zlib on a load: a worker's buffers do not grow with the blob.
constexpr std::size_t kStage = std::size_t{1} << 15;

/// Deflate output is kept in pieces of this size, never reallocated.
constexpr std::size_t kPiece = std::size_t{1} << 16;

/// Relative extent comparison that is exact for identical values, symmetric,
/// and not vacuously false when the reference extent is zero or the stored
/// value carries a negative perturbation (`< 1e-12 * extent` was both).
bool extent_matches(double stored, double expected) {
  const double scale = std::max(std::fabs(stored), std::fabs(expected));
  return std::fabs(stored - expected) <= 1e-12 * scale;
}

/// The blocks of one blob, in blob order; on a load, a null block is another
/// process's and its bytes are dropped.
template <typename BlockT>
struct BlockRun {
  std::vector<BlockT*> blocks;
  std::size_t block_cells = 0;

  [[nodiscard]] std::size_t cells() const { return blocks.size() * block_cells; }

  /// f(block, first cell, cells, offset in [i, i + n)) per block it spans.
  template <typename F>
  void for_each_run(std::size_t i, std::size_t n, F f) const {
    std::size_t at = 0;
    while (n > 0) {
      const std::size_t off = i % block_cells;
      const std::size_t len = std::min(n, block_cells - off);
      BlockT* blk = blocks[i / block_cells];
      if (blk != nullptr) f(blk, off, len, at);
      at += len;
      i += len;
      n -= len;
    }
  }
};

/// Byte `plane` of cells [i, i + n) of the run, into dst.
void gather_plane(const BlockRun<const Block>& run, int plane, std::size_t i, std::size_t n,
                  std::uint8_t* dst) {
  run.for_each_run(i, n, [&](const Block* blk, std::size_t off, std::size_t len, std::size_t at) {
    const auto* src = reinterpret_cast<const std::uint8_t*>(blk->data() + off) + plane;
    for (std::size_t j = 0; j < len; ++j) dst[at + j] = src[j * sizeof(Cell)];
  });
}

/// Inverse of gather_plane: src into byte `plane` of cells [i, i + n).
void scatter_plane(const BlockRun<Block>& run, int plane, std::size_t i, std::size_t n,
                   const std::uint8_t* src) {
  run.for_each_run(i, n, [&](Block* blk, std::size_t off, std::size_t len, std::size_t at) {
    auto* dst = reinterpret_cast<std::uint8_t*>(blk->data() + off) + plane;
    for (std::size_t j = 0; j < len; ++j) dst[j * sizeof(Cell)] = src[at + j];
  });
}

/// A deflate stream with the codec's settings, released on every exit.
/// Under Z_RLE the level only tells stored (0) from compressed blocks.
struct Deflater {
  z_stream zs{};
  Deflater() {
    require(deflateInit2(&zs, 1, Z_DEFLATED, 15, 8, Z_RLE) == Z_OK,
            "save_checkpoint: zlib init failure");
  }
  Deflater(const Deflater&) = delete;
  Deflater& operator=(const Deflater&) = delete;
  ~Deflater() { deflateEnd(&zs); }
};

/// An inflate stream released on every exit from a load.
struct Inflater {
  z_stream zs{};
  Inflater() { require(inflateInit(&zs) == Z_OK, "load_checkpoint: zlib init failure"); }
  Inflater(const Inflater&) = delete;
  Inflater& operator=(const Inflater&) = delete;
  ~Inflater() { inflateEnd(&zs); }
};

/// The run's zlib stream: its byte planes in order, each gathered through a
/// kStage buffer, into pieces of kPiece bytes (the last one cut to its
/// length) — one growing buffer would reallocate, copy, and stay resident.
void deflate_run(const BlockRun<const Block>& run, Blob& out) {
  Deflater def;
  z_stream& zs = def.zs;
  std::vector<std::uint8_t> stage(kStage);
  const std::size_t cells = run.cells();
  int rc = Z_OK;
  for (int plane = 0; plane < kPlanes; ++plane)
    for (std::size_t i = 0; i < cells; i += kStage) {
      const std::size_t n = std::min(kStage, cells - i);
      gather_plane(run, plane, i, n, stage.data());
      zs.next_in = stage.data();
      zs.avail_in = static_cast<uInt>(n);
      const bool last = plane + 1 == kPlanes && i + n == cells;
      // Z_NO_FLUSH: until the stage is consumed; Z_FINISH: until stream end.
      do {
        if (zs.avail_out == 0) {
          out.pieces.emplace_back(kPiece);
          zs.next_out = out.pieces.back().data();
          zs.avail_out = static_cast<uInt>(kPiece);
        }
        rc = deflate(&zs, last ? Z_FINISH : Z_NO_FLUSH);
      } while (rc == Z_OK && (last || zs.avail_in > 0));
      require(rc == (last ? Z_STREAM_END : Z_OK), "save_checkpoint: zlib failure");
    }
  out.pieces.back().resize(kPiece - zs.avail_out);
  out.pieces.back().shrink_to_fit();
  for (const auto& piece : out.pieces) {
    out.entry.crc = crc32_bytes(piece.data(), piece.size(), out.entry.crc);
    out.entry.size += piece.size();
  }
  out.entry.raw_size = std::uint64_t{cells} * kPlanes;
}

/// Inflates blob k from the file, kStage bytes at a time. With `run` null
/// the pass only proves the blob: its CRC, and that its stream consumes
/// exactly its bytes and inflates to exactly its raw size. With a run, the
/// pass scatters the planes into the run's blocks.
void inflate_blob(const ContainerReader& file, std::size_t k, const BlockRun<Block>* run) {
  const BlobEntry& ref = file.blobs()[k];
  Inflater inf;
  z_stream& zs = inf.zs;
  std::vector<std::uint8_t> in(kStage);
  std::vector<std::uint8_t> out(kStage);
  const std::uint64_t raw = ref.raw_size;
  const std::uint64_t cells = raw / kPlanes;
  std::uint64_t pos = 0;  // stream bytes read
  std::uint32_t crc = 0;  // of the bytes read
  const auto refill = [&] {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kStage, ref.size - pos));
    file.read_at(ref.offset + pos, in.data(), n);
    if (run == nullptr) crc = crc32_bytes(in.data(), n, crc);
    pos += n;
    zs.next_in = in.data();
    zs.avail_in = static_cast<uInt>(n);
  };

  int rc = Z_OK;
  while (rc == Z_OK) {
    if (zs.avail_in == 0 && pos < ref.size) refill();
    // Never more output room than the blob has bytes left, so a hostile
    // stream cannot inflate past its raw size; at zero room inflate can still
    // read the trailer and reach the stream end.
    const std::uint64_t done = zs.total_out;
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(std::min<std::uint64_t>(kStage, raw - done));
    rc = inflate(&zs, Z_NO_FLUSH);
    if (run == nullptr) continue;
    // Scatter what this call produced, split where a plane ends.
    std::uint64_t at = done;
    const std::uint8_t* src = out.data();
    for (auto left = static_cast<std::size_t>(zs.total_out - done); left > 0;) {
      const auto plane = static_cast<int>(at / cells);
      const auto i = static_cast<std::size_t>(at % cells);
      const std::size_t n = std::min<std::size_t>(left, cells - i);
      scatter_plane(*run, plane, i, n, src);
      src += n;
      at += n;
      left -= n;
    }
  }
  const std::string blob = file.what() + ": blob " + std::to_string(k);
  if (run == nullptr) {
    // The CRC covers every stream byte, also those past an early stream end.
    while (pos < ref.size) refill();
    require(crc == ref.crc, blob + " CRC mismatch");
    require(rc == Z_STREAM_END && zs.total_in == ref.size && zs.total_out == raw,
            blob + ": zlib failure");
  } else {
    // The first pass proved these bytes; failing here means the file
    // changed under the open descriptor.
    require(rc == Z_STREAM_END && zs.total_out == raw,
            blob + ": zlib failure on the verified stream");
  }
}

}  // namespace

std::vector<std::uint32_t> global_block_ids(const Grid& g, int bx, int by, int bz, int ox,
                                            int oy, int oz) {
  const BlockIndexer global(bx, by, bz);
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(g.block_count()));
  for (int i = 0; i < g.block_count(); ++i) {
    int x, y, z;
    g.indexer().coords(i, x, y, z);
    ids[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(global.linear(ox + x, oy + y, oz + z));
  }
  return ids;
}

ContainerHeader checkpoint_header(int bx, int by, int bz, int bs, double time, double extent,
                                  long steps) {
  ContainerHeader h;
  h.kind = PayloadKind::kCheckpoint;
  h.bx = bx;
  h.by = by;
  h.bz = bz;
  h.bs = bs;
  const auto steps64 = static_cast<std::int64_t>(steps);
  std::memcpy(h.record.data(), &time, 8);
  std::memcpy(h.record.data() + 8, &extent, 8);
  std::memcpy(h.record.data() + 16, &steps64, 8);
  return h;
}

BlobPlan checkpoint_plan(const Grid& g, std::vector<std::uint32_t> ids) {
  require(ids.size() == static_cast<std::size_t>(g.block_count()),
          "save_checkpoint: one global id per block required");
  // Runs of per_blob blocks in block order, about kChunkBytes of cells and
  // at least one block each, the last one short.
  const std::size_t block_cells =
      static_cast<std::size_t>(g.block_size()) * g.block_size() * g.block_size();
  const int per_blob =
      static_cast<int>(std::max<std::size_t>(1, kChunkBytes / (block_cells * sizeof(Cell))));
  BlobPlan plan;
  plan.blobs = static_cast<std::size_t>((g.block_count() + per_blob - 1) / per_blob);
  plan.ids = ids.size();
  plan.encode = [&g, ids = std::move(ids), block_cells, per_blob](int c, int /*worker*/) {
    const int first = c * per_blob;
    const int count = std::min(per_blob, g.block_count() - first);
    BlockRun<const Block> run;
    run.block_cells = block_cells;
    for (int b = first; b < first + count; ++b) run.blocks.push_back(&g.block(b));
    Blob blob;
    blob.entry.ids.assign(ids.begin() + first, ids.begin() + first + count);
    deflate_run(run, blob);
    return blob;
  };
  return plan;
}

CheckpointLoad::CheckpointLoad(const std::string& path, int bx, int by, int bz, int bs,
                               double extent, std::vector<Block*> targets)
    : file_(path, PayloadKind::kCheckpoint, "load_checkpoint"), targets_(std::move(targets)) {
  const ContainerHeader& h = file_.header();
  require(h.bx == bx && h.by == by && h.bz == bz && h.bs == bs,
          "load_checkpoint: grid shape mismatch: the file holds " + std::to_string(h.bx) + "x" +
              std::to_string(h.by) + "x" + std::to_string(h.bz) + " blocks of " +
              std::to_string(h.bs) + "^3");
  double stored_extent = 0;
  std::int64_t steps = 0;
  std::memcpy(&clock_.time, h.record.data(), 8);
  std::memcpy(&stored_extent, h.record.data() + 8, 8);
  std::memcpy(&steps, h.record.data() + 16, 8);
  clock_.steps = static_cast<long>(steps);
  require(extent_matches(stored_extent, extent), "load_checkpoint: domain extent mismatch");
  require(targets_.size() == h.block_count(), "load_checkpoint: one target per block required");

  const std::uint64_t block_bytes = std::uint64_t{static_cast<std::uint32_t>(bs)} * bs * bs *
                                    sizeof(Cell);
  for (std::size_t k = 0; k < file_.blobs().size(); ++k) {
    const BlobEntry& e = file_.blobs()[k];
    require(e.raw_size == e.ids.size() * block_bytes,
            "load_checkpoint: blob " + std::to_string(k) + " raw size " +
                std::to_string(e.raw_size) + " does not hold its " +
                std::to_string(e.ids.size()) + " blocks");
    if (std::any_of(e.ids.begin(), e.ids.end(),
                    [&](std::uint32_t id) { return targets_[id] != nullptr; }))
      needed_.push_back(k);
  }

  // The first of two passes over the needed blobs: it proves every CRC and
  // stream without writing anywhere, so a throwing load leaves the blocks
  // untouched. Checkpoints are published by rename, never written in place,
  // so restore() reads the bytes this pass proved.
  for_each_chunk(static_cast<int>(needed_.size()), [&](int i, int /*worker*/) {
    inflate_blob(file_, needed_[static_cast<std::size_t>(i)], nullptr);
  });
}

void CheckpointLoad::restore() const {
  const int bs = file_.header().bs;
  for_each_chunk(static_cast<int>(needed_.size()), [&](int i, int /*worker*/) {
    const std::size_t k = needed_[static_cast<std::size_t>(i)];
    BlockRun<Block> run;
    run.block_cells = static_cast<std::size_t>(bs) * bs * bs;
    for (const std::uint32_t id : file_.blobs()[k].ids) run.blocks.push_back(targets_[id]);
    inflate_blob(file_, k, &run);
  });
}

std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g, double time,
                                   long steps) {
  const int bx = g.blocks_x(), by = g.blocks_y(), bz = g.blocks_z();
  return save_container(
      path, checkpoint_header(bx, by, bz, g.block_size(), time, g.h() * g.cells_x(), steps),
      {checkpoint_plan(g, global_block_ids(g, bx, by, bz))});
}

CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g) {
  const int bx = g.blocks_x(), by = g.blocks_y(), bz = g.blocks_z();
  const std::vector<std::uint32_t> ids = global_block_ids(g, bx, by, bz);
  std::vector<Block*> targets(ids.size());
  for (int i = 0; i < g.block_count(); ++i)
    targets[ids[static_cast<std::size_t>(i)]] = &g.block(i);
  const CheckpointLoad load(path, bx, by, bz, g.block_size(), g.h() * g.cells_x(),
                            std::move(targets));
  load.restore();
  return load.clock();
}

std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim) {
  return save_grid_checkpoint(path, sim.grid(), sim.time(), sim.step_count());
}

void load_checkpoint(const std::string& path, Simulation& sim) {
  const CheckpointClock clock = load_grid_checkpoint(path, sim.grid());
  sim.restore_clock(clock.time, clock.steps);
}

}  // namespace mpcf::io
