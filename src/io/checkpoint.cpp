#include "io/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "io/safe_file.h"

namespace mpcf::io {

namespace {

/// "MPCFCKP" + a version digit; earlier writers produced version 1.
constexpr char kMagic[8] = {'M', 'P', 'C', 'F', 'C', 'K', 'P', '2'};

/// Relative extent comparison that is exact for identical values, symmetric,
/// and not vacuously false when the reference extent is zero or the stored
/// value carries a negative perturbation (`< 1e-12 * extent` was both).
bool extent_matches(double stored, double expected) {
  const double scale = std::max(std::fabs(stored), std::fabs(expected));
  return std::fabs(stored - expected) <= 1e-12 * scale;
}

/// A checkpoint file open for reading; both inflate passes of a load read
/// the same inode through it.
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
  /// read.
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

/// An inflate stream released on every exit from a load.
struct Inflater {
  z_stream zs{};
  Inflater() { require(inflateInit(&zs) == Z_OK, "load_checkpoint: zlib init failure"); }
  Inflater(const Inflater&) = delete;
  Inflater& operator=(const Inflater&) = delete;
  ~Inflater() { inflateEnd(&zs); }
};

}  // namespace

std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps) {
  const std::size_t cell_bytes = g.cell_count() * sizeof(Cell);

  // One deflate stream fed block by block in SFC order (Z_NO_FLUSH, then
  // Z_FINISH with the last block): the bytes compress2 at level 6 makes
  // of a contiguous copy of the state, without the copy. Only the
  // compressed output is buffered (the header leads with its size and CRC),
  // grown a chunk at a time.
  z_stream zs{};
  require(deflateInit(&zs, 6) == Z_OK, "save_checkpoint: zlib init failure");
  std::vector<std::uint8_t> comp;
  comp.reserve(deflateBound(&zs, static_cast<uLong>(cell_bytes)));
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  int rc = Z_OK;
  for (int b = 0; b < g.block_count() && rc == Z_OK; ++b) {
    const Block& blk = g.block(b);
    // mpcf-lint: allow(reinterpret-cast): zlib consumes the block's cells as raw bytes
    zs.next_in = const_cast<Bytef*>(reinterpret_cast<const Bytef*>(blk.data()));
    zs.avail_in = static_cast<uInt>(blk.cells() * sizeof(Cell));
    const int flush = b + 1 == g.block_count() ? Z_FINISH : Z_NO_FLUSH;
    // Z_NO_FLUSH: until the block is consumed; Z_FINISH: until stream end.
    do {
      if (zs.avail_out == 0) {
        const std::size_t used = comp.size();
        comp.resize(used + kChunk);
        zs.next_out = comp.data() + used;
        zs.avail_out = static_cast<uInt>(kChunk);
      }
      rc = deflate(&zs, flush);
    } while (rc == Z_OK && (flush == Z_FINISH || zs.avail_in > 0));
  }
  comp.resize(comp.size() - zs.avail_out);
  const bool finished = rc == Z_STREAM_END && zs.total_in == cell_bytes;
  deflateEnd(&zs);
  require(finished, "save_checkpoint: zlib failure");

  std::vector<std::uint8_t> header;  // bytes [12, 72): everything the crc covers
  header.reserve(60);
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    put_bytes(header, v);
  put_bytes(header, time);
  put_bytes(header, g.h() * g.cells_x());
  put_bytes(header, static_cast<std::int64_t>(steps));
  put_bytes(header, static_cast<std::uint64_t>(cell_bytes));
  put_bytes(header, static_cast<std::uint64_t>(comp.size()));
  put_bytes(header, crc32_bytes(comp.data(), comp.size()));

  SafeFile f(path);
  f.write(kMagic, 8);
  const std::uint32_t header_crc = crc32_bytes(header.data(), header.size());
  f.put(header_crc);
  f.write(header.data(), header.size());
  f.write(comp.data(), comp.size());
  f.commit();

#if MPCF_CHECKED
  // Verify-after-write: re-read the committed file and prove that what
  // landed on disk is byte-for-byte what we meant to write (catches rot
  // between rename and first use, torn commits the OS hid from us, and any
  // future serializer bug the CRCs alone would only catch at restart time).
  const std::vector<std::uint8_t> back = read_file(path);
  MPCF_CHECK(back.size() == 12 + header.size() + comp.size(),
             "checkpoint readback: " + path + " landed with " +
                 std::to_string(back.size()) + " bytes, wrote " +
                 std::to_string(12 + header.size() + comp.size()));
  MPCF_CHECK(std::memcmp(back.data(), kMagic, 8) == 0,
             "checkpoint readback: bad magic in " + path);
  MPCF_CHECK(crc32_bytes(back.data() + 12, header.size()) == header_crc,
             "checkpoint readback: header CRC mismatch in " + path);
  MPCF_CHECK(crc32_bytes(back.data() + 12 + header.size(), comp.size()) ==
                 crc32_bytes(comp.data(), comp.size()),
             "checkpoint readback: payload CRC mismatch in " + path);
#endif
  return f.bytes_written();
}

CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g) {
  const ReadOnlyFile file(path);
  std::uint8_t head[72];
  const auto head_bytes = static_cast<std::size_t>(std::min<std::uint64_t>(file.size(), 72));
  file.read_at(0, head, head_bytes);
  Cursor cur(head, head_bytes);
  char magic[8];
  cur.read(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    require(std::memcmp(magic, kMagic, 7) != 0,
            "load_checkpoint: unsupported checkpoint version '" + std::string(magic, 8) +
                "'; only version 2 ('MPCFCKP2') is read");
    throw PreconditionError("load_checkpoint: bad magic");
  }

  const auto header_crc = cur.get<std::uint32_t>();
  require(head_bytes >= 72, "load_checkpoint: truncated header");
  require(crc32_bytes(head + 12, 60) == header_crc, "load_checkpoint: header CRC mismatch");
  std::int32_t dims[4];
  cur.read(dims, sizeof(dims));
  const auto time = cur.get<double>();
  const auto extent = cur.get<double>();
  const auto steps = cur.get<std::int64_t>();
  const auto raw_bytes = cur.get<std::uint64_t>();
  const auto comp_bytes = cur.get<std::uint64_t>();
  const auto payload_crc = cur.get<std::uint32_t>();

  require(dims[0] == g.blocks_x() && dims[1] == g.blocks_y() &&
              dims[2] == g.blocks_z() && dims[3] == g.block_size(),
          "load_checkpoint: grid shape mismatch");
  require(extent_matches(extent, g.h() * g.cells_x()),
          "load_checkpoint: domain extent mismatch");
  // Both sizes are untrusted: validate against ground truth (the grid shape
  // and the bytes actually present) BEFORE allocating anything.
  require(raw_bytes == g.cell_count() * sizeof(Cell),
          "load_checkpoint: payload size mismatch");
  require(comp_bytes == file.size() - 72, "load_checkpoint: truncated or oversized payload");

  // Two inflate passes, each reading the payload from the open file a 64 KB
  // chunk at a time: the first checks its CRC and proves it inflates to
  // exactly raw_bytes without writing anywhere, so only a payload known good
  // reaches the blocks and a throwing load leaves the grid untouched. Neither
  // the file nor the state is ever held whole, so a load's footprint does not
  // grow with the grid. Checkpoints are published by rename and never written
  // in place, so the second pass reads the bytes the first one proved.
  Inflater inf;
  z_stream& zs = inf.zs;
  std::vector<std::uint8_t> in(std::size_t{1} << 16);
  std::uint64_t pos = 0;  // payload bytes read in this pass
  std::uint32_t crc = 0;  // of the bytes the first pass read
  const auto refill = [&](bool first_pass) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(in.size(), comp_bytes - pos));
    file.read_at(72 + pos, in.data(), n);
    pos += n;
    if (first_pass) crc = crc32_bytes(in.data(), n, crc);
    zs.next_in = in.data();
    zs.avail_in = static_cast<uInt>(n);
  };

  std::vector<std::uint8_t> sink(std::size_t{1} << 16);
  int rc = Z_OK;
  while (rc == Z_OK && zs.total_out <= raw_bytes) {
    if (zs.avail_in == 0 && pos < comp_bytes) refill(true);
    zs.next_out = sink.data();
    zs.avail_out = static_cast<uInt>(sink.size());
    rc = inflate(&zs, Z_NO_FLUSH);
  }
  // The CRC covers every payload byte, also those past an early stream end.
  while (pos < comp_bytes) refill(true);
  require(crc == payload_crc, "load_checkpoint: payload CRC mismatch");
  require(rc == Z_STREAM_END && zs.total_in == comp_bytes && zs.total_out == raw_bytes &&
              inflateReset(&zs) == Z_OK,
          "load_checkpoint: zlib failure");

  pos = 0;
  zs.avail_in = 0;
  rc = Z_OK;
  for (int b = 0; b < g.block_count() && rc == Z_OK; ++b) {
    Block& blk = g.block(b);
    // mpcf-lint: allow(reinterpret-cast): the payload is the blocks' raw cell bytes
    zs.next_out = reinterpret_cast<Bytef*>(blk.data());
    zs.avail_out = static_cast<uInt>(blk.cells() * sizeof(Cell));
    // The last block also drains the adler32 trailer, which may lie in a
    // chunk not read yet when the block is full.
    const bool last = b + 1 == g.block_count();
    while (rc == Z_OK && (zs.avail_out > 0 || last)) {
      if (zs.avail_in == 0 && pos < comp_bytes) refill(false);
      rc = inflate(&zs, Z_NO_FLUSH);
    }
  }
  // The first pass proved these bytes; failing here means the file changed
  // under the open descriptor.
  require(rc == Z_STREAM_END && zs.total_out == raw_bytes,
          "load_checkpoint: zlib failure on the verified payload");
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
