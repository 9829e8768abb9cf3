#include "io/checkpoint.h"

#include <fcntl.h>
#include <omp.h>
#include <sys/stat.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/chunk_loop.h"
#include "common/error.h"
#include "io/safe_file.h"

namespace mpcf::io {

namespace {

/// "MPCFCKP" + a version digit; earlier writers produced versions 1 and 2.
constexpr char kMagic[8] = {'M', 'P', 'C', 'F', 'C', 'K', 'P', '3'};

/// Bytes before the directory: magic, header CRC, shape, clock, chunk count.
constexpr std::size_t kFixedHeader = 56;
/// One directory entry: u64 compressed size, u32 CRC32 of the stream.
constexpr std::size_t kDirEntry = 12;

/// Raw cell bytes a chunk holds at most, unless one block is larger.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// Byte planes per cell: plane k of a chunk holds byte k of each of its cells.
constexpr int kPlanes = sizeof(Cell);

/// Bytes between the cells and zlib per step, and between the file and
/// zlib on a load: a worker's buffers do not grow with the chunk.
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

/// The chunk partition of a grid: whole blocks in SFC order, as many per
/// chunk as fit in kChunkBytes (at least one), the last chunk taking the
/// rest. A pure function of the grid shape, so neither the file bytes nor a
/// chunk's raw size depend on the worker count.
struct ChunkLayout {
  explicit ChunkLayout(const Grid& g)
      : blocks(g.block_count()),
        block_cells(static_cast<std::size_t>(g.block_size()) * g.block_size() *
                    g.block_size()),
        per_chunk(static_cast<int>(
            std::max<std::size_t>(1, kChunkBytes / (block_cells * sizeof(Cell))))),
        chunks((blocks + per_chunk - 1) / per_chunk) {}

  [[nodiscard]] int first_block(int c) const { return c * per_chunk; }
  [[nodiscard]] std::size_t cells(int c) const {
    return static_cast<std::size_t>(std::min(blocks - c * per_chunk, per_chunk)) * block_cells;
  }

  int blocks;
  std::size_t block_cells;
  int per_chunk;
  int chunks;
};

/// Byte `plane` of cells [i, i + n) of chunk c, into dst.
void gather_plane(const Grid& g, const ChunkLayout& layout, int c, int plane, std::size_t i,
                  std::size_t n, std::uint8_t* dst) {
  while (n > 0) {
    const std::size_t off = i % layout.block_cells;
    const std::size_t run = std::min(n, layout.block_cells - off);
    const Block& blk = g.block(layout.first_block(c) + static_cast<int>(i / layout.block_cells));
    const auto* src = reinterpret_cast<const std::uint8_t*>(blk.data() + off) + plane;
    for (std::size_t j = 0; j < run; ++j) dst[j] = src[j * sizeof(Cell)];
    dst += run;
    i += run;
    n -= run;
  }
}

/// Inverse of gather_plane: src into byte `plane` of cells [i, i + n).
void scatter_plane(Grid& g, const ChunkLayout& layout, int c, int plane, std::size_t i,
                   std::size_t n, const std::uint8_t* src) {
  while (n > 0) {
    const std::size_t off = i % layout.block_cells;
    const std::size_t run = std::min(n, layout.block_cells - off);
    Block& blk = g.block(layout.first_block(c) + static_cast<int>(i / layout.block_cells));
    auto* dst = reinterpret_cast<std::uint8_t*>(blk.data() + off) + plane;
    for (std::size_t j = 0; j < run; ++j) dst[j * sizeof(Cell)] = src[j];
    src += run;
    i += run;
    n -= run;
  }
}

/// A deflate stream with the chunk codec's settings, released on every exit.
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

/// A chunk's zlib stream as deflate wrote it: pieces of kPiece bytes, the
/// last one cut to its length. Growing one buffer would reallocate and copy,
/// and leave the outgrown buffers resident on every worker; pieces keep
/// only the stream's own bytes until the ordered write.
struct ChunkStream {
  std::vector<std::vector<std::uint8_t>> pieces;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Chunk c's zlib stream: its byte planes in order, each gathered through a
/// kStage staging buffer.
ChunkStream deflate_chunk(const Grid& g, const ChunkLayout& layout, int c) {
  Deflater def;
  z_stream& zs = def.zs;
  std::vector<std::uint8_t> stage(kStage);
  ChunkStream out;
  const std::size_t cells = layout.cells(c);
  int rc = Z_OK;
  for (int plane = 0; plane < kPlanes; ++plane)
    for (std::size_t i = 0; i < cells; i += kStage) {
      const std::size_t n = std::min(kStage, cells - i);
      gather_plane(g, layout, c, plane, i, n, stage.data());
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
    out.crc = crc32_bytes(piece.data(), piece.size(), out.crc);
    out.size += piece.size();
  }
  return out;
}

/// A checkpoint file open for reading; every pass of a load, on every
/// worker, reads the same inode through it.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    require(fd_ >= 0, "load_checkpoint: cannot open " + path_);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      // Read-only descriptor: close cannot lose data.
      (void)::close(fd_);
      throw PreconditionError("load_checkpoint: cannot stat " + path_);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  // Read-only descriptor: close cannot lose data.
  ~ReadOnlyFile() { (void)::close(fd_); }

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Reads exactly n bytes at `offset`; throws PreconditionError on a short
  /// read. Safe to call from several threads at once.
  void read_at(std::uint64_t offset, std::uint8_t* dst, std::size_t n) const {
    while (n > 0) {
      const ssize_t got = ::pread(fd_, dst, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      require(got > 0, "load_checkpoint: short read on " + path_);
      dst += got;
      offset += static_cast<std::uint64_t>(got);
      n -= static_cast<std::size_t>(got);
    }
  }

 private:
  std::string path_;
  int fd_;
  std::uint64_t size_ = 0;
};

/// Where a chunk's stream lies in the file, and its directory CRC.
struct ChunkRef {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

#if MPCF_CHECKED
/// CRC32 of file bytes [offset, offset + size), read kStage bytes at a time.
std::uint32_t file_crc(const ReadOnlyFile& file, const ChunkRef& ref) {
  std::vector<std::uint8_t> in(kStage);
  std::uint32_t crc = 0;
  for (std::uint64_t pos = 0; pos < ref.size;) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kStage, ref.size - pos));
    file.read_at(ref.offset + pos, in.data(), n);
    crc = crc32_bytes(in.data(), n, crc);
    pos += n;
  }
  return crc;
}
#endif

/// Inflates chunk c's stream from the file, kStage bytes at a time. With
/// `g` null the pass only proves the chunk: its CRC, and that its stream
/// consumes exactly its bytes and inflates to exactly its raw size. With a
/// grid, the pass scatters the planes into the chunk's blocks.
void inflate_chunk(const ReadOnlyFile& file, const ChunkRef& ref, const ChunkLayout& layout,
                   int c, Grid* g) {
  Inflater inf;
  z_stream& zs = inf.zs;
  std::vector<std::uint8_t> in(kStage);
  std::vector<std::uint8_t> out(kStage);
  const std::size_t cells = layout.cells(c);
  const std::uint64_t raw = std::uint64_t{cells} * kPlanes;
  std::uint64_t pos = 0;  // stream bytes read
  std::uint32_t crc = 0;  // of the bytes read
  const auto refill = [&] {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kStage, ref.size - pos));
    file.read_at(ref.offset + pos, in.data(), n);
    if (g == nullptr) crc = crc32_bytes(in.data(), n, crc);
    pos += n;
    zs.next_in = in.data();
    zs.avail_in = static_cast<uInt>(n);
  };

  int rc = Z_OK;
  while (rc == Z_OK) {
    if (zs.avail_in == 0 && pos < ref.size) refill();
    // Never more output room than the chunk has bytes left, so a hostile
    // stream cannot inflate past its raw size; at zero room inflate can still
    // read the trailer and reach the stream end.
    const std::uint64_t done = zs.total_out;
    zs.next_out = out.data();
    zs.avail_out = static_cast<uInt>(std::min<std::uint64_t>(kStage, raw - done));
    rc = inflate(&zs, Z_NO_FLUSH);
    if (g == nullptr) continue;
    // Scatter what this call produced, split where a plane ends.
    std::uint64_t at = done;
    const std::uint8_t* src = out.data();
    for (auto left = static_cast<std::size_t>(zs.total_out - done); left > 0;) {
      const auto plane = static_cast<int>(at / cells);
      const auto i = static_cast<std::size_t>(at % cells);
      const std::size_t n = std::min(left, cells - i);
      scatter_plane(*g, layout, c, plane, i, n, src);
      src += n;
      at += n;
      left -= n;
    }
  }
  const std::string chunk = "load_checkpoint: chunk " + std::to_string(c);
  if (g == nullptr) {
    // The CRC covers every stream byte, also those past an early stream end.
    while (pos < ref.size) refill();
    require(crc == ref.crc, chunk + " CRC mismatch");
    require(rc == Z_STREAM_END && zs.total_in == ref.size && zs.total_out == raw,
            chunk + ": zlib failure");
  } else {
    // The first pass proved these bytes; failing here means the file
    // changed under the open descriptor.
    require(rc == Z_STREAM_END && zs.total_out == raw,
            chunk + ": zlib failure on the verified stream");
  }
}

}  // namespace

std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps) {
  const ChunkLayout layout(g);
  const auto nchunks = static_cast<std::size_t>(layout.chunks);
  std::vector<ChunkStream> streams(nchunks);
  for_each_chunk(layout.chunks, omp_get_max_threads(), [&](int c, int /*worker*/) {
    streams[static_cast<std::size_t>(c)] = deflate_chunk(g, layout, c);
  });

  std::vector<std::uint8_t> header;  // bytes [12, 56 + 12 n): what header_crc covers
  header.reserve(kFixedHeader - 12 + kDirEntry * nchunks);
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    put_bytes(header, v);
  put_bytes(header, time);
  put_bytes(header, g.h() * g.cells_x());
  put_bytes(header, static_cast<std::int64_t>(steps));
  put_bytes(header, static_cast<std::uint32_t>(nchunks));
  for (const ChunkStream& s : streams) {
    put_bytes(header, s.size);
    put_bytes(header, s.crc);
  }

  SafeFile f(path);
  f.write(kMagic, 8);
  const std::uint32_t header_crc = crc32_bytes(header.data(), header.size());
  f.put(header_crc);
  f.write(header.data(), header.size());
  for (const ChunkStream& s : streams)
    for (const auto& piece : s.pieces) f.write(piece.data(), piece.size());
  f.commit();

#if MPCF_CHECKED
  // Verify-after-write: re-read the committed file chunk by chunk and prove
  // that what landed on disk is what we meant to write (catches rot between
  // rename and first use, torn commits the OS hid from us, and any future
  // serializer bug the CRCs alone would only catch at restart time).
  const ReadOnlyFile back(path);
  MPCF_CHECK(back.size() == f.bytes_written(),
             "checkpoint readback: " + path + " landed with " + std::to_string(back.size()) +
                 " bytes, wrote " + std::to_string(f.bytes_written()));
  std::vector<std::uint8_t> head(12 + header.size());
  back.read_at(0, head.data(), head.size());
  MPCF_CHECK(std::memcmp(head.data(), kMagic, 8) == 0 &&
                 std::memcmp(head.data() + 8, &header_crc, 4) == 0 &&
                 std::memcmp(head.data() + 12, header.data(), header.size()) == 0,
             "checkpoint readback: header mismatch in " + path);
  ChunkRef ref{head.size(), 0, 0};
  for (std::size_t k = 0; k < nchunks; ++k) {
    ref.size = streams[k].size;
    MPCF_CHECK(file_crc(back, ref) == streams[k].crc, "checkpoint readback: chunk " +
                                                          std::to_string(k) +
                                                          " CRC mismatch in " + path);
    ref.offset += ref.size;
  }
#endif
  return f.bytes_written();
}

CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g) {
  const ReadOnlyFile file(path);
  std::uint8_t head[kFixedHeader];
  const auto head_bytes =
      static_cast<std::size_t>(std::min<std::uint64_t>(file.size(), kFixedHeader));
  file.read_at(0, head, head_bytes);
  Cursor cur(head, head_bytes);
  char magic[8];
  cur.read(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    require(std::memcmp(magic, kMagic, 7) != 0,
            "load_checkpoint: unsupported checkpoint version '" + std::string(magic, 8) +
                "'; only version 3 ('MPCFCKP3') is read");
    throw PreconditionError("load_checkpoint: bad magic");
  }

  const auto header_crc = cur.get<std::uint32_t>();
  require(head_bytes == kFixedHeader, "load_checkpoint: truncated header");
  std::int32_t dims[4];
  cur.read(dims, sizeof(dims));
  const auto time = cur.get<double>();
  const auto extent = cur.get<double>();
  const auto steps = cur.get<std::int64_t>();
  const auto nchunks = cur.get<std::uint32_t>();
  // Untrusted: the directory must fit in the bytes present before it is
  // read into memory.
  require(nchunks <= (file.size() - kFixedHeader) / kDirEntry,
          "load_checkpoint: corrupt chunk count");
  std::vector<std::uint8_t> dir(std::size_t{nchunks} * kDirEntry);
  file.read_at(kFixedHeader, dir.data(), dir.size());
  require(crc32_bytes(dir.data(), dir.size(), crc32_bytes(head + 12, kFixedHeader - 12)) ==
              header_crc,
          "load_checkpoint: header CRC mismatch");

  require(dims[0] == g.blocks_x() && dims[1] == g.blocks_y() &&
              dims[2] == g.blocks_z() && dims[3] == g.block_size(),
          "load_checkpoint: grid shape mismatch");
  require(extent_matches(extent, g.h() * g.cells_x()),
          "load_checkpoint: domain extent mismatch");
  const ChunkLayout layout(g);
  require(nchunks == static_cast<std::uint32_t>(layout.chunks),
          "load_checkpoint: chunk count mismatch");
  // Every stream window must lie in the file (overflow-safe: sizes are
  // compared with what is left), and together they must end it exactly.
  std::vector<ChunkRef> refs(nchunks);
  Cursor entries(dir);
  std::uint64_t offset = kFixedHeader + dir.size();
  for (std::uint32_t c = 0; c < nchunks; ++c) {
    refs[c].offset = offset;
    refs[c].size = entries.get<std::uint64_t>();
    refs[c].crc = entries.get<std::uint32_t>();
    require(refs[c].size <= file.size() - offset,
            "load_checkpoint: chunk " + std::to_string(c) + " runs past the end of the file");
    offset += refs[c].size;
  }
  require(offset == file.size(), "load_checkpoint: trailing bytes after the last chunk");

  // Two passes over the chunks, each on the caller's workers, each reading
  // the streams from the open file kStage bytes at a time: the first checks
  // every CRC and proves every stream inflates to exactly its chunk without
  // writing anywhere, so only a file known good reaches the blocks and a
  // throwing load leaves the grid untouched. Checkpoints are published by
  // rename and never written in place, so the second pass reads the bytes
  // the first one proved.
  const int workers = omp_get_max_threads();
  for_each_chunk(layout.chunks, workers, [&](int c, int /*worker*/) {
    inflate_chunk(file, refs[static_cast<std::size_t>(c)], layout, c, nullptr);
  });
  for_each_chunk(layout.chunks, workers, [&](int c, int /*worker*/) {
    inflate_chunk(file, refs[static_cast<std::size_t>(c)], layout, c, &g);
  });
  return CheckpointClock{time, static_cast<long>(steps)};
}

std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim) {
  return save_grid_checkpoint(path, sim.grid(), sim.time(), sim.step_count());
}

void load_checkpoint(const std::string& path, Simulation& sim) {
  const CheckpointClock clock = load_grid_checkpoint(path, sim.grid());
  sim.restore_clock(clock.time, clock.steps);
}

}  // namespace mpcf::io
