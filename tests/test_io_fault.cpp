// Crash-safety and integrity tests of the hardened I/O substrate: the
// corruption matrix (truncate at every field boundary, single-bit flips in
// header/directory/payload, injected ENOSPC and torn writes at every write
// call) for both on-disk formats, the directory bounds checks on
// hand-built files with intact CRCs, rejection of unsupported versions and
// codecs, and rotating retention with auto-recovery (crash-then-restart
// resumes bitwise equal to an uninterrupted run).
#include <gtest/gtest.h>
#include <omp.h>
#include <zlib.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "common/check.h"
#include "compression/compressor.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/fault_injection.h"
#include "io/retention.h"
#include "io/safe_file.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

namespace fs = std::filesystem;

/// Every fault test disarms on exit so a failing EXPECT cannot leak an
/// armed plan into the next test.
struct FaultGuard {
  ~FaultGuard() { io::fault::disarm(); }
};

Simulation make_sim() {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(2, 2, 2, 8, p);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(sim.grid(), bubbles, TwoPhaseIC{});
  return sim;
}

void expect_grids_equal(const Grid& a, const Grid& b) {
  ASSERT_EQ(a.cell_count(), b.cell_count());
  for (int blk = 0; blk < a.block_count(); ++blk)
    ASSERT_EQ(std::memcmp(a.block(blk).data(), b.block(blk).data(),
                          a.block(blk).cells() * sizeof(Cell)),
              0)
        << "block " << blk;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  return io::read_file(path);
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  // mpcf-lint: allow(raw-io): corruption harness writes deliberately broken images; SafeFile would refuse to produce them
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

void flip_bit(const std::string& path, std::size_t byte, int bit) {
  auto bytes = slurp(path);
  ASSERT_LT(byte, bytes.size());
  bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
  spit(path, bytes);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- SafeFile / Cursor primitives ----------------------------------------

TEST(SafeFile, CommitIsAtomicAndAbortCleansUp) {
  const std::string path = ::testing::TempDir() + "/mpcf_safe.bin";
  std::remove(path.c_str());
  {
    io::SafeFile f(path);
    f.write("hello", 5);
    EXPECT_FALSE(fs::exists(path)) << "final path visible before commit";
    EXPECT_TRUE(fs::exists(f.tmp_path()));
    f.commit();
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(f.tmp_path()));
    EXPECT_EQ(f.bytes_written(), 5u);
  }
  {
    io::SafeFile f(path);  // overwrite attempt, never committed
    f.write("junk", 4);
  }
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "aborted temp file not cleaned up";
  const auto bytes = slurp(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello")
      << "aborted write clobbered the committed file";
  std::remove(path.c_str());
}

TEST(Cursor, RejectsReadsPastEnd) {
  const std::uint8_t buf[8] = {};
  io::Cursor cur(buf, sizeof(buf));
  EXPECT_EQ(cur.get<std::uint32_t>(), 0u);
  EXPECT_THROW((void)cur.get<std::uint64_t>(), PreconditionError);
  EXPECT_THROW(cur.skip(5), PreconditionError);
  EXPECT_NO_THROW(cur.skip(4));
}

TEST(Cursor, WindowIsOverflowSafe) {
  const std::uint8_t buf[16] = {};
  io::Cursor cur(buf, sizeof(buf));
  EXPECT_NO_THROW((void)cur.window(8, 8));
  EXPECT_THROW((void)cur.window(8, 9), PreconditionError);
  // offset + length wraps uint64 to a small value: must still be rejected.
  EXPECT_THROW((void)cur.window(2, ~std::uint64_t{0}), PreconditionError);
  EXPECT_THROW((void)cur.window(~std::uint64_t{0}, 2), PreconditionError);
}

// --- Checkpoint corruption matrix ----------------------------------------

/// A state whose checkpoint has two chunks (9 and 3 blocks of 16^3), so the
/// matrix covers a directory of several entries, a chunk boundary and a
/// short last chunk. `bubbles` bubbles of the cloud are set (0: all liquid).
/// The cells are set on the calling thread alone: ThreadSanitizer cannot see
/// libgomp's barriers, so cells an OpenMP team wrote would turn every read
/// by the codec's std::thread workers into a suppressed race report, and a
/// save would take minutes under TSan.
Simulation make_chunked_sim(std::size_t bubbles = 2) {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(2, 2, 3, 16, p);
  std::vector<Bubble> cloud{{0.4e-3, 0.5e-3, 0.7e-3, 0.2e-3},
                            {0.65e-3, 0.55e-3, 0.9e-3, 0.15e-3}};
  cloud.resize(std::min(bubbles, cloud.size()));
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  set_cloud_ic(sim.grid(), cloud, TwoPhaseIC{});
  omp_set_num_threads(threads);
  return sim;
}

/// Bytes of a v3 checkpoint before its first chunk stream.
std::size_t directory_end(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t chunks = 0;
  std::memcpy(&chunks, bytes.data() + 52, 4);
  return 56 + 12 * std::size_t{chunks};
}

/// Recomputes the header CRC of a v3 image over bytes [12, directory end).
void reseal_header(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = io::crc32_bytes(bytes.data() + 12, directory_end(bytes) - 12);
  std::memcpy(bytes.data() + 8, &crc, 4);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    io::fault::disarm();
    sim_ = std::make_unique<Simulation>(make_chunked_sim());
    sim_->restore_clock(2.5e-7, 3);
    path_ = ::testing::TempDir() + "/mpcf_fault_ckpt.bin";
    io::save_checkpoint(path_, *sim_);
    bytes_ = slurp(path_);
    ASSERT_EQ(directory_end(bytes_), 80u);  // two chunks
    ASSERT_GT(bytes_.size(), 80u);
    victim_ = std::make_unique<Simulation>(make_chunked_sim(0));
    pristine_ = std::make_unique<Simulation>(make_chunked_sim(0));
  }
  void TearDown() override {
    io::fault::disarm();
    std::remove(path_.c_str());
  }

  /// Loads the file at path_ into the victim state, expecting a rejection
  /// that leaves its cells and its clock untouched.
  void expect_rejected(const std::string& what) {
    EXPECT_THROW(io::load_checkpoint(path_, *victim_), PreconditionError) << what;
    expect_grids_equal(victim_->grid(), pristine_->grid());
    EXPECT_EQ(victim_->step_count(), 0) << what;
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<Simulation> victim_;    ///< every rejected load's target
  std::unique_ptr<Simulation> pristine_;  ///< what the victim must still hold
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(CheckpointCorruption, TruncationAtEveryBoundaryIsRejected) {
  // Every byte boundary of the header and the directory, the chunk
  // boundary, and cuts inside each chunk stream and at the end — nothing
  // short of the full file may load.
  std::uint64_t first = 0;
  std::memcpy(&first, bytes_.data() + 56, 8);
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c <= 80; ++c) cuts.push_back(c);
  cuts.push_back(80 + first / 2);
  cuts.push_back(80 + first);
  cuts.push_back(80 + first + (bytes_.size() - 80 - first) / 2);
  cuts.push_back(bytes_.size() - 1);
  for (const std::size_t cut : cuts) {
    spit(path_, {bytes_.begin(), bytes_.begin() + cut});
    expect_rejected("truncated at byte " + std::to_string(cut));
  }
}

TEST_F(CheckpointCorruption, TrailingGarbageIsRejected) {
  auto padded = bytes_;
  padded.push_back(0x5a);
  spit(path_, padded);
  expect_rejected("one trailing byte");
}

TEST_F(CheckpointCorruption, SingleBitFlipAnywhereIsRejected) {
  // Every header and directory byte; every 37th byte of the first and last
  // 4 KiB of each chunk stream (zlib header, first blocks, adler32 trailer);
  // ~2400 bytes spread over both streams; the last byte.
  std::vector<std::size_t> targets;
  for (std::size_t b = 0; b < 80; ++b) targets.push_back(b);
  std::uint64_t first = 0;
  std::memcpy(&first, bytes_.data() + 56, 8);
  for (const auto& [begin, end] : {std::pair<std::size_t, std::size_t>{80, 80 + first},
                                   {80 + first, bytes_.size()}})
    for (std::size_t b = 0; b < 4096 && b < end - begin; b += 37) {
      targets.push_back(begin + b);
      targets.push_back(end - 1 - b);
    }
  const std::size_t stride = std::max<std::size_t>(37, (bytes_.size() - 80) / 2400) | 1;
  for (std::size_t b = 80; b < bytes_.size(); b += stride) targets.push_back(b);
  targets.push_back(bytes_.size() - 1);
  for (const std::size_t byte : targets) {
    auto corrupt = bytes_;
    corrupt[byte] ^= 1u << (byte % 8);
    spit(path_, corrupt);
    EXPECT_THROW(io::load_checkpoint(path_, *victim_), PreconditionError)
        << "bit flip at byte " << byte << " restored silently";
  }
  // Every rejection left the one target state untouched.
  expect_grids_equal(victim_->grid(), pristine_->grid());
  EXPECT_EQ(victim_->step_count(), 0);
}

TEST_F(CheckpointCorruption, HugeCountAndSizeFieldsDoNotAllocate) {
  // A chunk count beyond what the file holds is refused before the
  // directory is read (its CRC cannot be resealed: the directory would not
  // exist). Chunk sizes are resealed under a valid header CRC, so only the
  // size validation can refuse them: huge, wrapping, and shifted by one
  // byte between the two chunks (the sum still ends the file).
  auto counted = bytes_;
  const std::uint32_t many = 0xffffffffu;
  std::memcpy(counted.data() + 52, &many, 4);
  spit(path_, counted);
  expect_rejected("chunk count 2^32 - 1");

  std::uint64_t first = 0, second = 0;
  std::memcpy(&first, bytes_.data() + 56, 8);
  std::memcpy(&second, bytes_.data() + 68, 8);
  const std::pair<std::uint64_t, std::uint64_t> sizes[] = {
      {1ull << 60, second}, {first, 1ull << 60}, {~std::uint64_t{0}, second + 1},
      {first + 1, second - 1}, {first - 1, second + 1}};
  for (const auto& [a, b] : sizes) {
    auto corrupt = bytes_;
    std::memcpy(corrupt.data() + 56, &a, 8);
    std::memcpy(corrupt.data() + 68, &b, 8);
    reseal_header(corrupt);
    spit(path_, corrupt);
    expect_rejected("chunk sizes " + std::to_string(a) + ", " + std::to_string(b));
  }
}

TEST_F(CheckpointCorruption, ChunkCountOtherThanTheShapeGivesIsRejected) {
  // One chunk holding everything, with a valid header and stream CRC: the
  // count follows from the grid shape, so the file is refused by name.
  auto one = bytes_;
  const std::uint32_t n = 1;
  std::memcpy(one.data() + 52, &n, 4);
  std::uint64_t first = 0, second = 0;
  std::memcpy(&first, bytes_.data() + 56, 8);
  std::memcpy(&second, bytes_.data() + 68, 8);
  const std::uint64_t both = first + second;
  std::memcpy(one.data() + 56, &both, 8);
  const std::uint32_t crc = io::crc32_bytes(bytes_.data() + 80, both);
  std::memcpy(one.data() + 64, &crc, 4);
  one.erase(one.begin() + 68, one.begin() + 80);
  reseal_header(one);
  spit(path_, one);
  try {
    io::load_checkpoint(path_, *victim_);
    FAIL() << "one-chunk file accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk count"), std::string::npos) << e.what();
  }
}

TEST_F(CheckpointCorruption, ExtentMismatchIsRejected) {
  Simulation::Params p;
  p.extent = 2e-3;  // same shape, different physical extent
  Simulation wrong(2, 2, 3, 16, p);
  EXPECT_THROW(io::load_checkpoint(path_, wrong), PreconditionError);
}

TEST_F(CheckpointCorruption, EnospcAtEveryWriteCallLeavesOldFileIntact) {
  FaultGuard guard;
  Simulation changed = make_chunked_sim(1);
  changed.restore_clock(5e-7, 5);
  for (long nth = 0;; ++nth) {
    io::fault::arm({io::fault::Kind::kEnospc, nth, 0, 0});
    try {
      io::save_checkpoint(path_, changed);
      EXPECT_FALSE(io::fault::fired());
      break;  // nth beyond the write-call count: healthy save, matrix done
    } catch (const IoError&) {
      EXPECT_TRUE(io::fault::fired());
      EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "nth=" << nth;
      // Atomicity: the previously committed checkpoint is untouched.
      io::load_checkpoint(path_, *victim_);
      expect_grids_equal(victim_->grid(), sim_->grid());
      EXPECT_EQ(victim_->step_count(), 3);
    }
  }
  io::load_checkpoint(path_, *victim_);
  expect_grids_equal(victim_->grid(), changed.grid());
  EXPECT_EQ(victim_->step_count(), 5);
}

TEST_F(CheckpointCorruption, TornWriteLeavesTempBehindAndOldFileIntact) {
  // A crash in every write call in turn: the header, the directory and each
  // piece of both chunk streams.
  FaultGuard guard;
  const Simulation changed = make_chunked_sim(1);
  for (long nth = 0;; ++nth) {
    io::fault::arm({io::fault::Kind::kTornWrite, nth, 0, 0});
    try {
      io::save_checkpoint(path_, changed);
      EXPECT_FALSE(io::fault::fired());
      break;  // nth beyond the write-call count: healthy save, matrix done
    } catch (const IoError&) {
      EXPECT_TRUE(io::fault::fired());
      EXPECT_TRUE(fs::exists(path_ + ".tmp")) << "nth=" << nth << ": a crash leaves the temp file";
      io::load_checkpoint(path_, *victim_);  // final path: still the old version
      expect_grids_equal(victim_->grid(), sim_->grid());
    }
  }
  // The healthy save simply overwrote the stale temp.
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  io::load_checkpoint(path_, *victim_);
  expect_grids_equal(victim_->grid(), changed.grid());
}

TEST_F(CheckpointCorruption, InjectedPostCommitCorruptionIsDetected) {
  FaultGuard guard;
  // Truncation inside the first chunk stream, then a flip inside the last.
  const std::uint64_t cut = 200;
  const std::uint64_t flip = bytes_.size() - 100;
  io::fault::arm({io::fault::Kind::kTruncate, 0, cut, 0});
#if MPCF_CHECKED
  // The checked build's verify-after-write readback refuses the save itself
  // (see test_checked_mode.cpp); release builds only notice at restart.
  EXPECT_THROW(io::save_checkpoint(path_, *sim_), CheckError);
  EXPECT_TRUE(io::fault::fired());
  io::fault::arm({io::fault::Kind::kBitFlip, 0, flip, 2});
  EXPECT_THROW(io::save_checkpoint(path_, *sim_), CheckError);
  EXPECT_TRUE(io::fault::fired());
#else
  io::save_checkpoint(path_, *sim_);
  EXPECT_TRUE(io::fault::fired());
  expect_rejected("truncated after commit");

  io::save_checkpoint(path_, *sim_);  // heal
  io::fault::arm({io::fault::Kind::kBitFlip, 0, flip, 2});
  io::save_checkpoint(path_, *sim_);
  EXPECT_TRUE(io::fault::fired());
  expect_rejected("bit flipped after commit");
#endif
}

TEST_F(CheckpointCorruption, EnvKnobArmsTheShim) {
  FaultGuard guard;
  ::setenv("MPCF_IO_FAULT", "enospc:0", 1);
  io::fault::arm_from_env();
  ::unsetenv("MPCF_IO_FAULT");
  EXPECT_TRUE(io::fault::armed());
  EXPECT_THROW(io::save_checkpoint(path_, *sim_), IoError);
  EXPECT_TRUE(io::fault::fired());

  ::setenv("MPCF_IO_FAULT", "bitflip:70:3", 1);
  io::fault::arm_from_env();
  ::unsetenv("MPCF_IO_FAULT");
#if MPCF_CHECKED
  EXPECT_THROW(io::save_checkpoint(path_, *sim_), CheckError);
  EXPECT_TRUE(io::fault::fired());
#else
  io::save_checkpoint(path_, *sim_);
  EXPECT_TRUE(io::fault::fired());
  expect_rejected("bit 3 of byte 70 flipped after commit");
#endif
}

// --- Checkpoint versions -------------------------------------------------

/// Every state byte of the simulation, SFC block order.
std::vector<std::uint8_t> raw_state(const Simulation& sim) {
  const Grid& g = sim.grid();
  std::vector<std::uint8_t> raw(g.cell_count() * sizeof(Cell));
  std::size_t off = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    const std::size_t n = g.block(b).cells() * sizeof(Cell);
    std::memcpy(raw.data() + off, g.block(b).data(), n);
    off += n;
  }
  return raw;
}

/// The state as one zlib level-6 stream, as the v1 and v2 writers stored it.
std::vector<std::uint8_t> one_stream(const std::vector<std::uint8_t>& raw) {
  uLongf comp_len = compressBound(static_cast<uLong>(raw.size()));
  std::vector<std::uint8_t> comp(comp_len);
  EXPECT_EQ(compress2(comp.data(), &comp_len, raw.data(), static_cast<uLong>(raw.size()), 6),
            Z_OK);
  comp.resize(comp_len);
  return comp;
}

/// The header fields v1 and v2 share: shape, clock, raw and blob sizes.
void put_v1_fields(std::vector<std::uint8_t>& out, const Simulation& sim, std::size_t raw,
                   std::size_t comp) {
  const Grid& g = sim.grid();
  for (std::int32_t v : {g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size()})
    io::put_bytes(out, v);
  io::put_bytes(out, sim.time());
  io::put_bytes(out, g.h() * g.cells_x());
  io::put_bytes(out, static_cast<std::int64_t>(sim.step_count()));
  io::put_bytes(out, static_cast<std::uint64_t>(raw));
  io::put_bytes(out, static_cast<std::uint64_t>(comp));
}

/// A version-1 checkpoint as earlier writers produced it: a header without
/// CRC fields, then one zlib stream of the raw cells.
void write_v1_checkpoint(const std::string& path, const Simulation& sim) {
  const std::vector<std::uint8_t> raw = raw_state(sim);
  const std::vector<std::uint8_t> comp = one_stream(raw);
  std::vector<std::uint8_t> out{'M', 'P', 'C', 'F', 'C', 'K', 'P', '1'};
  put_v1_fields(out, sim, raw.size(), comp.size());
  out.insert(out.end(), comp.begin(), comp.end());
  spit(path, out);
}

/// A version-2 checkpoint as earlier writers produced it: the v1 fields
/// under a header CRC, the payload CRC, then the same single stream.
void write_v2_checkpoint(const std::string& path, const Simulation& sim) {
  const std::vector<std::uint8_t> raw = raw_state(sim);
  const std::vector<std::uint8_t> comp = one_stream(raw);
  std::vector<std::uint8_t> header;
  put_v1_fields(header, sim, raw.size(), comp.size());
  io::put_bytes(header, io::crc32_bytes(comp.data(), comp.size()));
  std::vector<std::uint8_t> out{'M', 'P', 'C', 'F', 'C', 'K', 'P', '2'};
  io::put_bytes(out, io::crc32_bytes(header.data(), header.size()));
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), comp.begin(), comp.end());
  spit(path, out);
}

/// Expects the file to be refused with an error naming `magic` as an
/// unsupported version, whole and truncated anywhere in its header.
void expect_version_refused(const std::string& path, const char* magic) {
  Simulation b = make_sim();
  try {
    io::load_checkpoint(path, b);
    ADD_FAILURE() << magic << " checkpoint accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(magic), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
  const auto bytes = io::read_file(path);
  for (std::size_t cut = 0; cut < 76; cut += 4) {
    spit(path, {bytes.begin(), bytes.begin() + cut});
    EXPECT_THROW(io::load_checkpoint(path, b), PreconditionError) << "cut at " << cut;
  }
}

TEST(CheckpointVersions, V1FilesAreRejectedNamingTheVersion) {
  Simulation a = make_sim();
  a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_v1.ckp";
  write_v1_checkpoint(path, a);
  expect_version_refused(path, "MPCFCKP1");
  std::remove(path.c_str());
}

TEST(CheckpointVersions, V2FilesAreRejectedNamingTheVersion) {
  Simulation a = make_sim();
  a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_v2.ckp";
  write_v2_checkpoint(path, a);
  expect_version_refused(path, "MPCFCKP2");
  std::remove(path.c_str());
}

// --- Compressed-quantity corruption matrix -------------------------------

compression::CompressedQuantity make_cq() {
  Grid g(1, 1, 1, 8, 1e-3);
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  set_cloud_ic(g, one, TwoPhaseIC{});
  compression::CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  return compression::compress_quantity(g, p);
}

class CompressedCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    io::fault::disarm();
    cq_ = make_cq();
    ASSERT_FALSE(cq_.streams.empty());
    path_ = ::testing::TempDir() + "/mpcf_fault.cq";
    io::write_compressed(path_, cq_);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 48u);
  }
  void TearDown() override {
    io::fault::disarm();
    std::remove(path_.c_str());
  }

  compression::CompressedQuantity cq_;
  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(CompressedCorruption, RoundTripSurvives) {
  const auto rt = io::read_compressed(path_);
  ASSERT_EQ(rt.streams.size(), cq_.streams.size());
  for (std::size_t s = 0; s < rt.streams.size(); ++s) {
    EXPECT_EQ(rt.streams[s].block_ids, cq_.streams[s].block_ids);
    EXPECT_EQ(rt.streams[s].raw_bytes, cq_.streams[s].raw_bytes);
    EXPECT_EQ(rt.streams[s].data, cq_.streams[s].data);
  }
  const auto f_rt = compression::decompress_to_field(rt);
  const auto f_cq = compression::decompress_to_field(cq_);
  ASSERT_EQ(f_rt.size(), f_cq.size());
  EXPECT_EQ(std::memcmp(f_rt.data(), f_cq.data(), f_cq.size() * sizeof(float)), 0);
}

TEST_F(CompressedCorruption, TruncationAtEveryBoundaryIsRejected) {
  for (std::size_t cut = 0; cut < bytes_.size(); ++cut) {
    spit(path_, {bytes_.begin(), bytes_.begin() + cut});
    EXPECT_THROW((void)io::read_compressed(path_), PreconditionError)
        << "truncated at byte " << cut;
  }
}

TEST_F(CompressedCorruption, SingleBitFlipAnywhereIsRejected) {
  const std::size_t stride = bytes_.size() > 4096 ? 7 : 1;
  for (std::size_t byte = 0; byte < bytes_.size(); byte += stride) {
    auto corrupt = bytes_;
    corrupt[byte] ^= 1u << (byte % 8);
    spit(path_, corrupt);
    EXPECT_THROW((void)io::read_compressed(path_), PreconditionError)
        << "bit flip at byte " << byte << " read back silently";
  }
}

TEST_F(CompressedCorruption, WriteFaultsNeverPublishAPartialFile) {
  FaultGuard guard;
  const std::string out = ::testing::TempDir() + "/mpcf_fault_out.cq";
  std::remove(out.c_str());
  for (long nth = 0;; ++nth) {
    io::fault::arm({io::fault::Kind::kEnospc, nth, 0, 0});
    try {
      io::write_compressed(out, cq_);
      EXPECT_FALSE(io::fault::fired());
      break;
    } catch (const IoError&) {
      EXPECT_TRUE(io::fault::fired());
      EXPECT_FALSE(fs::exists(out)) << "partial file published, nth=" << nth;
      EXPECT_FALSE(fs::exists(out + ".tmp"));
    }
  }
  io::fault::arm({io::fault::Kind::kTornWrite, 1, 0, 0});
  EXPECT_THROW((void)io::write_compressed(out, cq_), IoError);
  std::remove((out + ".tmp").c_str());
  std::remove(out.c_str());
}

TEST_F(CompressedCorruption, PersistentEnospcSurfacesAsCatchableError) {
  // Regression: the coalescing writer's destructor used to retry the failed
  // flush during stack unwinding; on a *persistent* write failure (a disk
  // that is genuinely full keeps failing, unlike a one-shot injected plan)
  // the retry threw out of a noexcept destructor and the process died in
  // std::terminate instead of surfacing an IoError. Sweep the sticky fault
  // across every write call: each must throw a catchable IoError.
  FaultGuard guard;
  const std::string out = ::testing::TempDir() + "/mpcf_fault_sticky.cq";
  std::remove(out.c_str());
  const long healthy_writes = [&] {
    long n = 0;
    for (;; ++n) {  // count the write calls of one healthy save
      io::fault::arm({io::fault::Kind::kEnospc, n, 0, 0});
      try {
        io::write_compressed(out, cq_);
        return n;
      } catch (const IoError&) {
      }
    }
  }();
  std::remove(out.c_str());
  for (long nth = 0; nth < healthy_writes; ++nth) {
    io::fault::arm({io::fault::Kind::kEnospc, nth, 0, 0, /*sticky=*/true});
    EXPECT_THROW((void)io::write_compressed(out, cq_), IoError)
        << "sticky ENOSPC from write " << nth;
    io::fault::disarm();
    EXPECT_FALSE(fs::exists(out)) << "partial file published, nth=" << nth;
    EXPECT_FALSE(fs::exists(out + ".tmp")) << "temp left behind, nth=" << nth;
  }
  std::remove(out.c_str());
}

// --- Sparse-stream corruption (decoder-level, below the file CRCs) --------

/// Re-encodes a sparse payload into the stream so the zlib layer and the
/// directory stay self-consistent: only the sparse decoder can notice.
void replace_sparse_payload(compression::CompressedQuantity::Stream& stream,
                            const std::vector<std::uint8_t>& sparse) {
  uLongf bound = compressBound(static_cast<uLong>(sparse.size()));
  stream.data.resize(bound);
  ASSERT_EQ(compress2(stream.data.data(), &bound, sparse.data(),
                      static_cast<uLong>(sparse.size()), 6),
            Z_OK);
  stream.data.resize(bound);
  stream.raw_bytes = sparse.size();
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

TEST(SparseCorruption, TruncatedSparseStreamIsRefusedWithStreamIndex) {
  // Regression for the vacuous post-decode size check: a sparse stream cut
  // mid-payload must be refused by the decoder itself, naming the stream,
  // instead of yielding silently wrong cubes.
  auto cq = make_cq();
  ASSERT_FALSE(cq.streams.empty());
  // Recover the stream's sparse bytes, chop the tail, re-encode consistently.
  std::vector<std::uint8_t> sparse(cq.streams[0].raw_bytes);
  uLongf len = static_cast<uLongf>(sparse.size());
  ASSERT_EQ(uncompress(sparse.data(), &len, cq.streams[0].data.data(),
                       static_cast<uLong>(cq.streams[0].data.size())),
            Z_OK);
  ASSERT_GT(sparse.size(), 4u);
  sparse.resize(sparse.size() - 3);
  replace_sparse_payload(cq.streams[0], sparse);
  try {
    (void)compression::decompress_to_field(cq);
    FAIL() << "truncated sparse stream decoded silently";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("stream 0"), std::string::npos)
        << "error does not name the stream: " << e.what();
  }
}

TEST(SparseCorruption, WrappingRunLengthsAreRejectedBeforeAnyWrite) {
  // Regression for the uint64-wrap OOB write: two runs whose sum wraps to
  // exactly the expected total used to pass the old `seen == total` check
  // and drive a multi-exabyte zero-fill through the output buffer. The
  // hardened decoder bounds every run against the remaining budget first.
  auto cq = make_cq();
  ASSERT_FALSE(cq.streams.empty());
  const std::uint64_t total =
      static_cast<std::uint64_t>(cq.streams[0].block_ids.size()) * 8 * 8 * 8;
  // zero run + value run sum to total only via uint64 wraparound, and the
  // value count is a multiple of 2^62 so the old payload-size check
  // (value_count * 4, also wrapping) saw the empty payload as consistent.
  const std::uint64_t values = std::uint64_t{1} << 62;
  const std::uint64_t zeros = std::uint64_t{0} - values + total;
  std::vector<std::uint8_t> sparse;
  put_varint(sparse, total);
  put_varint(sparse, zeros);
  put_varint(sparse, values);
  replace_sparse_payload(cq.streams[0], sparse);
  EXPECT_THROW((void)compression::decompress_to_field(cq), PreconditionError);
}

TEST(SparseCorruption, LengthMismatchNamesTheExpectedCount) {
  // A sparse header claiming a different coefficient count than the block
  // directory implies must fail up front (this is what the old vacuous
  // `require` was meant to catch).
  auto cq = make_cq();
  ASSERT_FALSE(cq.streams.empty());
  std::vector<std::uint8_t> sparse;
  put_varint(sparse, 7);  // bogus total
  put_varint(sparse, 7);
  put_varint(sparse, 0);
  replace_sparse_payload(cq.streams[0], sparse);
  EXPECT_THROW((void)compression::decompress_to_field(cq), PreconditionError);
}

// --- Compressed-quantity directory bounds, versions and codecs ----------
//
// Hand-built v3 images with an intact header CRC: the CRC cannot be what
// rejects them, so each test proves the reader's own check fires.

/// Byte offsets of the v3 header fields patched below.
constexpr std::size_t kCodecIdByte = 41;  // after magic, crc, 6 dims, eps, flag
constexpr std::size_t kFourccByte = 44;   // after the coder byte and 2 pad bytes
constexpr std::size_t kFirstEntry = 52;   // after fourcc and stream count
constexpr std::size_t kEntryRaw = kFirstEntry + 4;
constexpr std::size_t kEntrySize = kFirstEntry + 12;
constexpr std::size_t kEntryOffset = kFirstEntry + 20;

/// A real single-stream v3 dump of make_cq() as bytes.
std::vector<std::uint8_t> v3_image(const compression::CompressedQuantity& cq,
                                   const std::string& path) {
  io::write_compressed(path, cq);
  return slurp(path);
}

/// Recomputes the header CRC over [12, crc_end) after fields were patched;
/// crc_end is the blob region start of the unpatched image.
void reseal(std::vector<std::uint8_t>& bytes, std::size_t crc_end) {
  const std::uint32_t crc = io::crc32_bytes(bytes.data() + 12, crc_end - 12);
  std::memcpy(bytes.data() + 8, &crc, sizeof(crc));
}

std::size_t blob_region_start(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t offset;
  std::memcpy(&offset, bytes.data() + kEntryOffset, sizeof(offset));
  return static_cast<std::size_t>(offset);
}

template <typename T>
void patch(std::vector<std::uint8_t>& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/// Reads `bytes` back through `path` and returns the rejection message.
std::string rejection(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  spit(path, bytes);
  try {
    (void)io::read_compressed(path);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "image read back without error";
  return {};
}

TEST(CompressedDirectory, Uint64WrapInDirectoryIsRejected) {
  // Regression: blob_offset + blob_size wrapping uint64 used to pass the
  // `offset + size <= file_size` check and read out of bounds.
  const std::string path = ::testing::TempDir() + "/mpcf_wrap.cq";
  auto bytes = v3_image(make_cq(), path);
  const std::size_t crc_end = blob_region_start(bytes);
  patch(bytes, kEntrySize, ~std::uint64_t{0});  // blob_size: 2^64-1
  patch(bytes, kEntryOffset, std::uint64_t{2});  // offset + size wraps to 1
  reseal(bytes, crc_end);
  EXPECT_NE(rejection(path, bytes).find("bad offsets"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CompressedDirectory, ImplausibleRawSizeIsRejectedBeforeAllocation) {
  // A raw_bytes field beyond zlib's ~1032:1 bound over the blob present
  // must be caught by the plausibility check instead of driving a multi-GB
  // allocation in the decoder — the writer seals it with a valid CRC.
  auto cq = make_cq();
  cq.streams[0].raw_bytes = 1ull << 50;
  const std::string path = ::testing::TempDir() + "/mpcf_huge_raw.cq";
  const auto bytes = v3_image(cq, path);
  std::uint64_t raw;
  std::memcpy(&raw, bytes.data() + kEntryRaw, sizeof(raw));
  ASSERT_EQ(raw, 1ull << 50);
  EXPECT_NE(rejection(path, bytes).find("implausible raw size"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CompressedVersions, PreV3MagicsAreRejectedNamingTheVersion) {
  const std::string path = ::testing::TempDir() + "/mpcf_old_magic.cq";
  const auto v3 = v3_image(make_cq(), path);
  for (const char* magic : {"MPCFCQ01", "MPCFCQ02"}) {
    auto bytes = v3;
    std::memcpy(bytes.data(), magic, 8);
    const std::string msg = rejection(path, bytes);
    EXPECT_NE(msg.find(magic), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsupported .cq version"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(CompressedVersions, OtherCodecPairsAreRejectedNamingTheCodec) {
  // Earlier writers stored coder ids 0, 2 and 3 with these tags; an intact
  // header naming any of them, or a mismatched pair, is refused by name.
  const std::string path = ::testing::TempDir() + "/mpcf_other_codec.cq";
  const auto v3 = v3_image(make_cq(), path);
  const std::size_t crc_end = blob_region_start(v3);
  const std::pair<std::uint8_t, const char*> pairs[] = {
      {0, "ZLIB"}, {2, "LZ4B"}, {3, "SPL4"}, {1, "ZLIB"}, {0, "SPZL"}};
  for (const auto& [coder, tag] : pairs) {
    auto bytes = v3;
    bytes[kCodecIdByte] = coder;
    std::memcpy(bytes.data() + kFourccByte, tag, 4);
    reseal(bytes, crc_end);
    const std::string msg = rejection(path, bytes);
    EXPECT_NE(msg.find(std::string("'") + tag + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("coder id " + std::to_string(coder)), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsupported codec"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// --- Rotating retention and auto-recovery --------------------------------

TEST(Retention, KeepsLastKAndIgnoresForeignFiles) {
  const std::string dir = fresh_dir("mpcf_rot_keep");
  io::CheckpointRotator rot(dir, "ckpt", 3);
  Simulation sim = make_sim();
  for (int s = 1; s <= 5; ++s) {
    sim.step();
    rot.save(sim);
  }
  // A stale SafeFile temp and an unrelated file must not count as
  // checkpoints.
  spit(dir + "/ckpt_00000099.ckp.tmp", {1, 2, 3});
  spit(dir + "/unrelated.bin", {4, 5, 6});
  const auto files = rot.list();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files.front(), rot.path_for(3));
  EXPECT_EQ(files.back(), rot.path_for(5));
  fs::remove_all(dir);
}

TEST(Retention, RecoversPastCorruptNewestFile) {
  const std::string dir = fresh_dir("mpcf_rot_recover");
  io::CheckpointRotator rot(dir, "ckpt", 3);
  Simulation sim = make_sim();
  sim.step();
  sim.step();
  rot.save(sim);
  Simulation at2 = make_sim();
  io::load_checkpoint(rot.path_for(2), at2);  // snapshot of step 2
  sim.step();
  sim.step();
  rot.save(sim);
  flip_bit(rot.path_for(4), 100, 5);  // newest checkpoint rots on disk

  Simulation recovered = make_sim();
  std::vector<std::string> skipped;
  EXPECT_TRUE(rot.load_latest_valid(recovered, &skipped));
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], rot.path_for(4));
  EXPECT_EQ(recovered.step_count(), 2);
  expect_grids_equal(recovered.grid(), at2.grid());
  fs::remove_all(dir);
}

TEST(Retention, NoValidCheckpointReturnsFalse) {
  const std::string dir = fresh_dir("mpcf_rot_empty");
  io::CheckpointRotator rot(dir, "ckpt", 2);
  Simulation sim = make_sim();
  EXPECT_FALSE(rot.load_latest_valid(sim));
  spit(rot.path_for(1), {9, 9, 9});  // garbage-only directory
  std::vector<std::string> skipped;
  EXPECT_FALSE(rot.load_latest_valid(sim, &skipped));
  EXPECT_EQ(skipped.size(), 1u);
  fs::remove_all(dir);
}

TEST(Retention, CrashThenRestartResumesBitwiseIdentical) {
  FaultGuard guard;
  Simulation straight = make_sim();
  for (int s = 0; s < 10; ++s) straight.step();

  // The "production" run: checkpoint every 2 steps, die of ENOSPC while
  // writing the step-10 checkpoint.
  const std::string dir = fresh_dir("mpcf_rot_crash");
  io::CheckpointRotator rot(dir, "ckpt", 3);
  {
    Simulation run = make_sim();
    for (int s = 1; s <= 8; ++s) {
      run.step();
      if (s % 2 == 0) rot.save(run);
    }
    run.step();
    run.step();
    io::fault::arm({io::fault::Kind::kEnospc, 2, 0, 0});
    EXPECT_THROW(rot.save(run), IoError);  // "crash"
    EXPECT_TRUE(io::fault::fired());
  }

  // Restart: newest valid checkpoint is step 8; resume to step 10.
  Simulation resumed = make_sim();
  std::vector<std::string> skipped;
  ASSERT_TRUE(rot.load_latest_valid(resumed, &skipped));
  EXPECT_TRUE(skipped.empty()) << "atomic writer must not leave a corrupt file";
  EXPECT_EQ(resumed.step_count(), 8);
  resumed.step();
  resumed.step();

  EXPECT_DOUBLE_EQ(resumed.time(), straight.time());
  expect_grids_equal(resumed.grid(), straight.grid());
  fs::remove_all(dir);
}

// --- Cluster-layer checkpointing -----------------------------------------

Simulation::Params cluster_params() {
  Simulation::Params p;
  p.extent = 1e-3;
  return p;
}

void init_cluster(cluster::ClusterSimulation& cs) {
  Grid global(2, 2, 2, 8, 1e-3);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(global, bubbles, TwoPhaseIC{});
  cs.scatter(global);
}

TEST(ClusterCheckpoint, RoundTripAcrossTopologiesIsBitwise) {
  cluster::ClusterSimulation a(2, 2, 2, 8, cluster::CartTopology(2, 1, 1),
                               cluster_params());
  init_cluster(a);
  for (int s = 0; s < 3; ++s) a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_cluster.ckp";
  EXPECT_GT(a.save_checkpoint(path), 0u);

  // Restore into a *different* topology: the checkpoint is the gathered
  // global state, so any decomposition of the same global shape works.
  cluster::ClusterSimulation b(2, 2, 2, 8, cluster::CartTopology(1, 1, 2),
                               cluster_params());
  b.load_checkpoint(path);
  EXPECT_DOUBLE_EQ(b.time(), a.time());
  Grid ga(2, 2, 2, 8, 1e-3), gb(2, 2, 2, 8, 1e-3);
  a.gather(ga);
  b.gather(gb);
  expect_grids_equal(ga, gb);

  // Resumed trajectories stay bitwise identical.
  a.step();
  b.step();
  a.gather(ga);
  b.gather(gb);
  expect_grids_equal(ga, gb);
  std::remove(path.c_str());
}

TEST(ClusterCheckpoint, RotatingRecoverySkipsCorruptAndTracesAttempts) {
  const std::string dir = fresh_dir("mpcf_rot_cluster");
  io::CheckpointRotator rot(dir, "cluster", 3);
  cluster::ClusterSimulation cs(2, 2, 2, 8, cluster::CartTopology(2, 1, 1),
                                cluster_params());
  init_cluster(cs);
  cs.step();
  cs.step();
  cs.save_checkpoint_rotating(rot);
  Grid at2(2, 2, 2, 8, 1e-3);
  cs.gather(at2);
  cs.step();
  cs.step();
  cs.save_checkpoint_rotating(rot);
  flip_bit(rot.path_for(4), 90, 1);

  cluster::ClusterSimulation fresh(2, 2, 2, 8, cluster::CartTopology(2, 1, 1),
                                   cluster_params());
  fresh.tracer().enable(true);
  std::vector<std::string> skipped;
  const std::string recovered = fresh.load_latest_valid_checkpoint(rot, &skipped);
  EXPECT_EQ(recovered, rot.path_for(2));
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], rot.path_for(4));
  Grid g(2, 2, 2, 8, 1e-3);
  fresh.gather(g);
  expect_grids_equal(g, at2);
  // One kCheckpoint span per attempt: the skipped corrupt file + the
  // successful restore.
  int spans = 0;
  for (const auto& e : fresh.tracer().events())
    if (e.phase == perf::TracePhase::kCheckpoint) ++spans;
  EXPECT_EQ(spans, 2);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mpcf
