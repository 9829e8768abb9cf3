#include "io/checkpoint.h"

#include <zlib.h>

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

}  // namespace

std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps) {
  const std::size_t cell_bytes = g.cell_count() * sizeof(Cell);
  std::vector<std::uint8_t> raw(cell_bytes);
  std::size_t off = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    const std::size_t n = g.block(b).cells() * sizeof(Cell);
    std::memcpy(raw.data() + off, g.block(b).data(), n);
    off += n;
  }

  uLongf comp_len = compressBound(static_cast<uLong>(raw.size()));
  std::vector<std::uint8_t> comp(comp_len);
  require(compress2(comp.data(), &comp_len, raw.data(), static_cast<uLong>(raw.size()),
                    6) == Z_OK,
          "save_checkpoint: zlib failure");
  comp.resize(comp_len);

  std::vector<std::uint8_t> header;  // bytes [12, 72): everything the crc covers
  header.reserve(60);
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    put_bytes(header, v);
  put_bytes(header, time);
  put_bytes(header, g.h() * g.cells_x());
  put_bytes(header, static_cast<std::int64_t>(steps));
  put_bytes(header, static_cast<std::uint64_t>(raw.size()));
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
  const std::vector<std::uint8_t> bytes = read_file(path);
  Cursor cur(bytes);
  char magic[8];
  cur.read(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    require(std::memcmp(magic, kMagic, 7) != 0,
            "load_checkpoint: unsupported checkpoint version '" + std::string(magic, 8) +
                "'; only version 2 ('MPCFCKP2') is read");
    throw PreconditionError("load_checkpoint: bad magic");
  }

  const auto header_crc = cur.get<std::uint32_t>();
  require(bytes.size() >= 72, "load_checkpoint: truncated header");
  require(crc32_bytes(bytes.data() + 12, 60) == header_crc,
          "load_checkpoint: header CRC mismatch");
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
  require(comp_bytes == cur.remaining(),
          "load_checkpoint: truncated or oversized payload");
  const std::uint8_t* blob = cur.window(cur.offset(), comp_bytes);
  require(crc32_bytes(blob, comp_bytes) == payload_crc,
          "load_checkpoint: payload CRC mismatch");

  std::vector<std::uint8_t> raw(raw_bytes);
  uLongf raw_len = static_cast<uLongf>(raw.size());
  require(uncompress(raw.data(), &raw_len, blob, static_cast<uLong>(comp_bytes)) ==
                  Z_OK &&
              raw_len == raw_bytes,
          "load_checkpoint: zlib failure");

  std::size_t off = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    const std::size_t n = g.block(b).cells() * sizeof(Cell);
    std::memcpy(g.block(b).data(), raw.data() + off, n);
    off += n;
  }
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
