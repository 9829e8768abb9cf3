// Crash-safety and integrity tests of the I/O substrate: the SafeFile and
// Cursor primitives; one corruption matrix over the container
// (io/container.h), run for both payload kinds — truncation at every header
// and directory boundary and mid-blob, bit flips and trailing garbage, huge
// count, size and id fields, block ids and shapes the directory does not
// cover, older versions and other kinds, injected ENOSPC at every write
// call, torn writes and post-commit corruption; the payload-specific cases;
// and rotating retention with auto-recovery (crash-then-restart resumes
// bitwise equal to an uninterrupted run).
#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "common/check.h"
#include "compression/pipeline.h"
#include "container_image.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/fault_injection.h"
#include "io/retention.h"
#include "io/safe_file.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

namespace fs = std::filesystem;
using test::blob_area;
using test::load_field;
using test::store_field;

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

// --- The container corruption matrix, both payload kinds -----------------

enum class Payload { kCheckpoint, kDump };

/// A state whose files have several blobs: its checkpoint two (9 and 3
/// blocks of 16^3), its 2-worker dump eight streams. `bubbles` bubbles of
/// the cloud are set (0: all liquid).
Simulation make_chunked_sim(std::size_t bubbles = 2) {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(2, 2, 3, 16, p);
  std::vector<Bubble> cloud{{0.4e-3, 0.5e-3, 0.7e-3, 0.2e-3},
                            {0.65e-3, 0.55e-3, 0.9e-3, 0.15e-3}};
  cloud.resize(std::min(bubbles, cloud.size()));
  set_cloud_ic(sim.grid(), cloud, TwoPhaseIC{});
  return sim;
}

compression::CompressionParams dump_params() {
  compression::CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  return p;
}

class ContainerCorruption : public ::testing::TestWithParam<Payload> {
 protected:
  void SetUp() override {
    io::fault::disarm();
    sim_ = std::make_unique<Simulation>(make_chunked_sim());
    sim_->restore_clock(2.5e-7, 3);
    victim_ = std::make_unique<Simulation>(make_chunked_sim(0));
    pristine_ = std::make_unique<Simulation>(make_chunked_sim(0));
    path_ = ::testing::TempDir() + (checkpoint() ? "/mpcf_fault.ckp" : "/mpcf_fault.cq");
    save(*sim_);
    bytes_ = slurp(path_);
    if (!checkpoint()) field_ = compression::decompress_to_field(io::read_compressed(path_));
    image_ = test::parse_image(bytes_);
    ASSERT_EQ(image_.entries.size(), checkpoint() ? 2u : 8u);
  }
  void TearDown() override {
    io::fault::disarm();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  [[nodiscard]] bool checkpoint() const { return GetParam() == Payload::kCheckpoint; }

  /// Writes `sim`'s file of this kind at path_.
  void save(const Simulation& sim) const {
    if (checkpoint()) {
      io::save_checkpoint(path_, sim);
    } else {
      const test::Threads two(2);  // eight streams
      compression::dump_quantity_pipelined(sim.grid(), dump_params(), path_);
    }
  }

  /// `sim`'s state on an in-process 2x2x1 cluster (one blob or three
  /// streams per rank, fewer than the window).
  [[nodiscard]] static std::unique_ptr<cluster::ClusterSimulation> as_cluster(
      const Simulation& sim) {
    Simulation::Params p;
    p.extent = 1e-3;
    auto cs = std::make_unique<cluster::ClusterSimulation>(2, 2, 3, 16,
                                                           cluster::CartTopology(2, 2, 1), p);
    cs->scatter(sim.grid());
    return cs;
  }

  /// Writes `cs`'s file of this kind at path_: every rank's plan through
  /// the one save path.
  void save(cluster::ClusterSimulation& cs) const {
    if (checkpoint()) {
      (void)cs.save_checkpoint(path_);
    } else {
      const test::Threads two(2);
      (void)cs.dump_collective(path_, dump_params());
    }
  }

  /// Reads path_ through the kind's reader and decoder.
  void load() const {
    if (checkpoint())
      io::load_checkpoint(path_, *victim_);
    else
      (void)compression::decompress_to_field(io::read_compressed(path_));
  }

  /// The file at path_ must be refused with a PreconditionError, leaving
  /// the victim's cells and clock untouched; returns the message.
  std::string expect_rejected(const std::string& what) {
    std::string msg;
    try {
      load();
      ADD_FAILURE() << what << ": accepted";
    } catch (const PreconditionError& e) {
      msg = e.what();
    }
    if (checkpoint()) {
      expect_grids_equal(victim_->grid(), pristine_->grid());
      EXPECT_EQ(victim_->step_count(), 0) << what;
    }
    return msg;
  }

  /// Writes `bytes` at path_ and expects them refused; returns the message.
  std::string rejects(const std::vector<std::uint8_t>& bytes, const std::string& what) {
    spit(path_, bytes);
    return expect_rejected(what);
  }

  /// The file at path_ holds sim_'s state.
  void expect_original() {
    load();
    if (checkpoint()) {
      expect_grids_equal(victim_->grid(), sim_->grid());
      EXPECT_EQ(victim_->step_count(), 3);
    } else {
      const Field3D<float> f = compression::decompress_to_field(io::read_compressed(path_));
      EXPECT_EQ(std::memcmp(f.data(), field_.data(), f.size() * sizeof(float)), 0);
    }
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<Simulation> victim_;    ///< every rejected load's target
  std::unique_ptr<Simulation> pristine_;  ///< what the victim must still hold
  std::string path_;
  std::vector<std::uint8_t> bytes_;
  test::ContainerImage image_;
  Field3D<float> field_{1, 1, 1};  ///< the dump's decoded field
};

TEST_P(ContainerCorruption, RoundTripAndRewriteAreBitwise) {
  expect_original();
  // The image codec of the tests rebuilds the file byte for byte.
  EXPECT_TRUE(test::build_image(image_) == bytes_);
}

TEST_P(ContainerCorruption, TruncationAtEveryHeaderAndDirectoryBoundaryAndMidBlobIsRejected) {
  std::vector<std::size_t> cuts;
  for (std::size_t c = 0; c <= blob_area(bytes_); ++c) cuts.push_back(c);
  for (const test::ImageEntry& e : image_.entries) {
    cuts.push_back(e.offset + e.size / 2);
    cuts.push_back(e.offset + e.size);
  }
  cuts.pop_back();  // the end of the last blob is the whole file
  cuts.push_back(bytes_.size() - 1);
  for (const std::size_t cut : cuts)
    rejects({bytes_.begin(), bytes_.begin() + static_cast<std::ptrdiff_t>(cut)},
            "truncated at byte " + std::to_string(cut));
}

TEST_P(ContainerCorruption, BitFlipsAndTrailingGarbageAreRejected) {
  // Every header and directory byte; every 37th byte of the first and last
  // 4 KiB of each blob (zlib header, first blocks, adler32 trailer); ~1200
  // bytes spread over the blobs; the last byte.
  std::vector<std::size_t> targets;
  const std::size_t area = blob_area(bytes_);
  for (std::size_t b = 0; b < area; ++b) targets.push_back(b);
  for (const test::ImageEntry& e : image_.entries)
    for (std::size_t b = 0; b < 4096 && b < e.size; b += 37) {
      targets.push_back(e.offset + b);
      targets.push_back(e.offset + e.size - 1 - b);
    }
  const std::size_t stride = std::max<std::size_t>(37, (bytes_.size() - area) / 1200) | 1;
  for (std::size_t b = area; b < bytes_.size(); b += stride) targets.push_back(b);
  targets.push_back(bytes_.size() - 1);
  for (const std::size_t byte : targets) {
    auto corrupt = bytes_;
    corrupt[byte] ^= 1u << (byte % 8);
    spit(path_, corrupt);
    EXPECT_THROW(load(), PreconditionError) << "bit flip at byte " << byte << " read silently";
  }
  if (checkpoint()) {
    expect_grids_equal(victim_->grid(), pristine_->grid());
    EXPECT_EQ(victim_->step_count(), 0);
  }
  for (const std::size_t extra : {1, 100}) {
    auto padded = bytes_;
    padded.insert(padded.end(), extra, 0x5a);
    EXPECT_NE(rejects(padded, "trailing garbage").find("trailing bytes"), std::string::npos);
  }
}

TEST_P(ContainerCorruption, HugeCountSizeAndIdFieldsAllocateNothing) {
  // Each field is patched under a resealed header CRC, so only the field
  // checks can refuse it, before anything the field sizes is allocated.
  const auto patched = [&](std::size_t at, auto value) {
    auto f = bytes_;
    store_field(f, at, value);
    test::reseal_header(f);
    return f;
  };
  const std::size_t e0 = test::kImageHeader;  // first directory entry
  const std::size_t e1 = e0 + test::kImageEntry + 4 * image_.entries[0].ids.size();
  const std::uint64_t s0 = image_.entries[0].size, s1 = image_.entries[1].size;
  EXPECT_NE(rejects(patched(32, 0xffffffffu), "blob count").find("blob count"),
            std::string::npos);
  // The header CRC cannot be resealed over a directory the file lacks.
  EXPECT_NE(rejects(patched(40, std::uint64_t{1} << 60), "directory bytes")
                .find("directory runs past"),
            std::string::npos);
  EXPECT_NE(rejects(patched(e0 + 28, 0xffffffffu), "id count").find("id count"),
            std::string::npos);
  EXPECT_NE(rejects(patched(e0 + 8, std::uint64_t{1} << 60), "blob size").find("past the end"),
            std::string::npos);
  EXPECT_NE(rejects(patched(e0 + 8, ~std::uint64_t{0}), "wrapping blob size").find("past the end"),
            std::string::npos);
  EXPECT_NE(rejects(patched(e0, ~std::uint64_t{0} - 1), "wrapping offset").find("does not start"),
            std::string::npos);
  EXPECT_NE(rejects(patched(e0 + 16, std::uint64_t{1} << 50), "raw size").find("implausible"),
            std::string::npos);
  // Sizes shifted by one byte between the first two blobs: the windows
  // still tile the file, but the second does not start where it says.
  auto shifted = bytes_;
  store_field(shifted, e0 + 8, s0 + 1);
  store_field(shifted, e1 + 8, s1 - 1);
  test::reseal_header(shifted);
  EXPECT_NE(rejects(shifted, "shifted sizes").find("does not start"), std::string::npos);
}

TEST_P(ContainerCorruption, BlockIdsAndShapesTheDirectoryDoesNotCoverAreRejected) {
  // Files with every CRC resealed: the id and shape checks alone refuse
  // them. Regression: a reader that trusted ids wrote out of bounds while
  // decoding the first, and decoded the fourth to a field half of whose
  // blocks were never written.
  struct Case {
    const char* what;
    const char* message;
    void (*edit)(test::ContainerImage&);
  };
  const Case cases[] = {
      {"id out of range", "out of range",
       [](test::ContainerImage& img) { img.entries[0].ids[0] = 4000; }},
      {"duplicate id", "appears twice",
       [](test::ContainerImage& img) { img.entries[1].ids[0] = img.entries[0].ids[0]; }},
      {"missing block", "in no blob",
       [](test::ContainerImage& img) { img.entries.back().ids.pop_back(); }},
      {"shape larger than the ids", "in no blob",
       [](test::ContainerImage& img) { img.bx *= 2; }},
      {"non-positive shape", "not positive", [](test::ContainerImage& img) { img.bz = 0; }},
      {"block size above the bound", "above", [](test::ContainerImage& img) { img.bs = 65; }},
  };
  for (const Case& c : cases) {
    test::ContainerImage img = image_;
    c.edit(img);
    const std::string msg = rejects(test::build_image(img), c.what);
    EXPECT_NE(msg.find(c.message), std::string::npos) << c.what << ": " << msg;
  }
}

TEST_P(ContainerCorruption, OlderVersionsAndOtherKindsAreRefusedByName) {
  for (const char* magic :
       {"MPCFCQ01", "MPCFCQ02", "MPCFCQ03", "MPCFCKP1", "MPCFCKP2", "MPCFCKP3"}) {
    auto old = bytes_;
    std::memcpy(old.data(), magic, 8);
    const std::string msg = rejects(old, magic);
    EXPECT_NE(msg.find(magic), std::string::npos) << msg;
    EXPECT_NE(msg.find("unsupported file version"), std::string::npos) << msg;
    for (std::size_t cut = 0; cut < test::kImageHeader; cut += 8)
      rejects({old.begin(), old.begin() + static_cast<std::ptrdiff_t>(cut)},
              std::string(magic) + " cut at " + std::to_string(cut));
  }
  // An intact header of another kind is refused naming both kinds.
  for (const char* kind : {"SPZL", "PLRL", "ZLIB"}) {
    if (std::memcmp(bytes_.data() + 12, kind, 4) == 0) continue;
    auto other = bytes_;
    std::memcpy(other.data() + 12, kind, 4);
    test::reseal_header(other);
    const std::string msg = rejects(other, kind);
    EXPECT_NE(msg.find(std::string("'") + kind + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("payload kind"), std::string::npos) << msg;
  }
}

TEST_P(ContainerCorruption, EnospcAtEveryWriteCallLeavesOldFileIntact) {
  // A full disk at every write call in turn: each piece of every blob, then
  // the header and directory, written last — of a node save, and of an
  // in-process multi-rank save whose ranks' blobs share one window.
  FaultGuard guard;
  Simulation changed = make_chunked_sim(1);
  changed.restore_clock(5e-7, 5);
  const auto cs = as_cluster(changed);
  for (const bool ranks : {false, true}) {
    SCOPED_TRACE(ranks ? "2x2x1 ranks" : "node");
    const auto save_changed = [&] { ranks ? save(*cs) : save(changed); };
    spit(path_, bytes_);
    long calls = 0;  // write calls of one save
    for (long nth = 0;; ++nth) {
      io::fault::arm({io::fault::Kind::kEnospc, nth, 0, 0});
      try {
        save_changed();
        EXPECT_FALSE(io::fault::fired());
        calls = nth;
        break;  // nth beyond the write-call count: healthy save, matrix done
      } catch (const IoError&) {
        EXPECT_TRUE(io::fault::fired());
        EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "nth=" << nth;
        expect_original();  // atomicity: the committed file is untouched
      }
    }
    // At least one write per blob, and one for the header and directory.
    EXPECT_GT(calls, static_cast<long>(test::parse_image(slurp(path_)).entries.size()));
    // A persistent fault (a disk that stays full) from every write call on.
    spit(path_, bytes_);
    for (long nth = 0; nth < calls; ++nth) {
      io::fault::arm({io::fault::Kind::kEnospc, nth, 0, 0, /*sticky=*/true});
      EXPECT_THROW(save_changed(), IoError) << "sticky ENOSPC from write " << nth;
      io::fault::disarm();
      EXPECT_FALSE(fs::exists(path_ + ".tmp")) << "temp left behind, nth=" << nth;
      expect_original();
    }
  }
}

TEST_P(ContainerCorruption, TornWriteLeavesTempBehindAndOldFileIntact) {
  // A crash in every write call in turn: each piece of every blob, then the
  // header and directory — of a node save and of an in-process multi-rank
  // save.
  FaultGuard guard;
  const Simulation changed = make_chunked_sim(1);
  const auto cs = as_cluster(changed);
  for (const bool ranks : {false, true}) {
    SCOPED_TRACE(ranks ? "2x2x1 ranks" : "node");
    const auto save_changed = [&] { ranks ? save(*cs) : save(changed); };
    spit(path_, bytes_);
    std::vector<std::uint8_t> last_temp;  // left by the crash in the last write call
    long calls = 0;
    for (long nth = 0;; ++nth) {
      io::fault::arm({io::fault::Kind::kTornWrite, nth, 0, 0});
      try {
        save_changed();
        EXPECT_FALSE(io::fault::fired());
        calls = nth;
        break;  // nth beyond the write-call count: healthy save, matrix done
      } catch (const IoError&) {
        EXPECT_TRUE(io::fault::fired());
        EXPECT_TRUE(fs::exists(path_ + ".tmp"))
            << "nth=" << nth << ": a crash leaves the temp file";
        last_temp = slurp(path_ + ".tmp");
        expect_original();  // final path: still the old version
      }
    }
    // The healthy save simply overwrote the stale temp.
    EXPECT_FALSE(fs::exists(path_ + ".tmp"));
    const std::vector<std::uint8_t> good = slurp(path_);
    EXPECT_GT(calls, static_cast<long>(test::parse_image(good).entries.size()));
    // The last write call is the header and directory, in one positional
    // write after every blob: its crash leaves all blob bytes in place, half
    // the head written, and the rest of the head a hole of zeros.
    const std::size_t head = blob_area(good);
    ASSERT_EQ(last_temp.size(), good.size());
    EXPECT_TRUE(std::equal(good.begin() + static_cast<std::ptrdiff_t>(head), good.end(),
                           last_temp.begin() + static_cast<std::ptrdiff_t>(head)));
    EXPECT_TRUE(std::equal(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(head / 2),
                           last_temp.begin()));
    EXPECT_TRUE(std::all_of(last_temp.begin() + static_cast<std::ptrdiff_t>(head / 2),
                            last_temp.begin() + static_cast<std::ptrdiff_t>(head),
                            [](std::uint8_t b) { return b == 0; }));
  }
}

TEST_P(ContainerCorruption, InjectedPostCommitCorruptionIsDetected) {
  FaultGuard guard;
  // Truncation inside the first blob, then a flip inside the last.
  const std::uint64_t cut = image_.entries[0].offset + 10;
  const std::uint64_t flip = bytes_.size() - 100;
  io::fault::arm({io::fault::Kind::kTruncate, 0, cut, 0});
#if MPCF_CHECKED
  // The checked build's verify-after-write readback refuses the save itself
  // (see test_checked_mode.cpp); release builds only notice at the read.
  EXPECT_THROW(save(*sim_), CheckError);
  EXPECT_TRUE(io::fault::fired());
  io::fault::arm({io::fault::Kind::kBitFlip, 0, flip, 2});
  EXPECT_THROW(save(*sim_), CheckError);
  EXPECT_TRUE(io::fault::fired());
#else
  save(*sim_);
  EXPECT_TRUE(io::fault::fired());
  expect_rejected("truncated after commit");

  io::fault::arm({io::fault::Kind::kBitFlip, 0, flip, 2});
  save(*sim_);
  EXPECT_TRUE(io::fault::fired());
  expect_rejected("bit flipped after commit");
#endif
}

INSTANTIATE_TEST_SUITE_P(BothPayloads, ContainerCorruption,
                         ::testing::Values(Payload::kCheckpoint, Payload::kDump),
                         [](const ::testing::TestParamInfo<Payload>& info) {
                           return info.param == Payload::kCheckpoint ? "Checkpoint" : "Dump";
                         });

// --- Checkpoint payload --------------------------------------------------

TEST(CheckpointPayload, ExtentMismatchIsRejected) {
  const std::string path = ::testing::TempDir() + "/mpcf_extent.ckp";
  io::save_checkpoint(path, make_chunked_sim());
  Simulation::Params p;
  p.extent = 2e-3;  // same shape, different physical extent
  Simulation wrong(2, 2, 3, 16, p);
  EXPECT_THROW(io::load_checkpoint(path, wrong), PreconditionError);
  std::remove(path.c_str());
}

TEST(CheckpointPayload, RawSizeOtherThanItsBlocksIsRejected) {
  // A raw size is its ids times the block bytes; one that is not is refused
  // by name even under intact CRCs.
  const std::string path = ::testing::TempDir() + "/mpcf_raw.ckp";
  io::save_checkpoint(path, make_chunked_sim());
  test::ContainerImage img = test::parse_image(slurp(path));
  img.entries[1].raw -= sizeof(Cell);
  spit(path, test::build_image(img));
  Simulation b = make_chunked_sim(0);
  try {
    io::load_checkpoint(path, b);
    ADD_FAILURE() << "raw size accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("blob 1 raw size"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointPayload, EnvKnobArmsTheShim) {
  FaultGuard guard;
  const std::string path = ::testing::TempDir() + "/mpcf_envknob.ckp";
  const Simulation sim = make_sim();
  ::setenv("MPCF_IO_FAULT", "enospc:0", 1);
  io::fault::arm_from_env();
  ::unsetenv("MPCF_IO_FAULT");
  EXPECT_TRUE(io::fault::armed());
  EXPECT_THROW(io::save_checkpoint(path, sim), IoError);
  EXPECT_TRUE(io::fault::fired());

  ::setenv("MPCF_IO_FAULT", "bitflip:70:3", 1);
  io::fault::arm_from_env();
  ::unsetenv("MPCF_IO_FAULT");
#if MPCF_CHECKED
  EXPECT_THROW(io::save_checkpoint(path, sim), CheckError);
  EXPECT_TRUE(io::fault::fired());
#else
  io::save_checkpoint(path, sim);
  EXPECT_TRUE(io::fault::fired());
  Simulation b = make_sim();
  EXPECT_THROW(io::load_checkpoint(path, b), PreconditionError);
#endif
  std::remove(path.c_str());
}

// --- Dump payload --------------------------------------------------------

compression::CompressedQuantity make_cq() {
  Grid g(1, 1, 1, 8, 1e-3);
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  set_cloud_ic(g, one, TwoPhaseIC{});
  compression::CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  return compression::compress_quantity_pipelined(g, p);
}

TEST(DumpPayload, RecordFieldsTheDecoderTrustsAreChecked) {
  // The wavelet depth must be the one the block size gives, and a raw
  // quantity must name a cell component.
  const std::string path = ::testing::TempDir() + "/mpcf_record.cq";
  io::write_compressed(path, make_cq());
  const auto good = slurp(path);
  const std::tuple<std::size_t, std::int32_t, const char*> cases[] = {
      {48, 9, "wavelet levels"}, {52, 7, "quantity 7 out of range"},
      {52, -1, "quantity -1 out of range"}};
  for (const auto& [at, value, message] : cases) {
    auto bad = good;
    store_field(bad, at, value);
    test::reseal_header(bad);
    spit(path, bad);
    try {
      (void)io::read_compressed(path);
      ADD_FAILURE() << message << ": accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(DumpPayload, OutOfRangeIdAndUncoveredShapeAreRefused) {
  // Regression, through write_compressed with valid CRCs: a block id of
  // 4000 in a 2x2x2-block quantity (decoding it wrote out of bounds), and a
  // header of 4x2x2 blocks over ids that cover 8 (half the field was never
  // written). The checked build's readback refuses them at the write.
  Grid g(2, 2, 2, 8, 1e-3);
  set_cloud_ic(g, {Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}}, TwoPhaseIC{});
  compression::CompressionParams p;
  p.quantity = Q_G;
  const auto good = compression::compress_quantity_pipelined(g, p);
  auto far = good;
  far.streams[0].block_ids[0] = 4000;
  auto wide = good;
  wide.bx = 4;
  const std::string path = ::testing::TempDir() + "/mpcf_probe.cq";
  for (const auto* cq : {&far, &wide}) {
#if MPCF_CHECKED
    EXPECT_THROW(io::write_compressed(path, *cq), CheckError);
#else
    io::write_compressed(path, *cq);
    EXPECT_THROW((void)io::read_compressed(path), PreconditionError);
#endif
  }
  std::remove(path.c_str());
}

TEST(DumpPayload, InMemoryIdsOutsideTheShapeAreRefusedByTheDecoder) {
  auto cq = make_cq();
  cq.streams[0].block_ids[0] = 4000;
  EXPECT_THROW((void)compression::decompress_to_field(cq), PreconditionError);
}

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
  // directory implies must fail up front.
  auto cq = make_cq();
  ASSERT_FALSE(cq.streams.empty());
  std::vector<std::uint8_t> sparse;
  put_varint(sparse, 7);  // bogus total
  put_varint(sparse, 7);
  put_varint(sparse, 0);
  replace_sparse_payload(cq.streams[0], sparse);
  EXPECT_THROW((void)compression::decompress_to_field(cq), PreconditionError);
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
    io::fault::arm({io::fault::Kind::kEnospc, 1, 0, 0});
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

  // Restore into a *different* topology: the blobs carry global block ids,
  // so any decomposition of the same global shape works.
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
