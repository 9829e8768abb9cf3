// Tests of the bitwise-exact checkpoint/restart path.
#include <gtest/gtest.h>

#include <zlib.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "container_image.h"
#include "io/checkpoint.h"
#include "io/safe_file.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf::io {
namespace {

Simulation make_sim() {
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation sim(2, 2, 2, 8, p);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(sim.grid(), bubbles, TwoPhaseIC{});
  return sim;
}

TEST(Checkpoint, RoundTripIsBitwiseExact) {
  Simulation a = make_sim();
  for (int s = 0; s < 5; ++s) a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt.bin";
  const auto bytes = save_checkpoint(path, a);
  EXPECT_GT(bytes, 0u);

  Simulation b = make_sim();  // same shape, different (initial) state
  load_checkpoint(path, b);
  EXPECT_DOUBLE_EQ(b.time(), a.time());
  EXPECT_EQ(b.step_count(), a.step_count());
  for (int iz = 0; iz < 16; ++iz)
    for (int iy = 0; iy < 16; ++iy)
      for (int ix = 0; ix < 16; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(b.grid().cell(ix, iy, iz).q(q), a.grid().cell(ix, iy, iz).q(q));
  std::remove(path.c_str());
}

TEST(Checkpoint, RestartReproducesTrajectoryExactly) {
  // Run 10 steps straight vs 5 steps + checkpoint + restart + 5 steps:
  // identical bits (the low-storage RK has no hidden state across steps).
  Simulation straight = make_sim();
  for (int s = 0; s < 10; ++s) straight.step();

  Simulation first = make_sim();
  for (int s = 0; s < 5; ++s) first.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt2.bin";
  save_checkpoint(path, first);

  Simulation resumed = make_sim();
  load_checkpoint(path, resumed);
  for (int s = 0; s < 5; ++s) resumed.step();

  EXPECT_DOUBLE_EQ(resumed.time(), straight.time());
  for (int iz = 0; iz < 16; ++iz)
    for (int iy = 0; iy < 16; ++iy)
      for (int ix = 0; ix < 16; ++ix)
        for (int q = 0; q < kNumQuantities; ++q)
          ASSERT_EQ(resumed.grid().cell(ix, iy, iz).q(q),
                    straight.grid().cell(ix, iy, iz).q(q))
              << ix << "," << iy << "," << iz << " q=" << q;
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsShapeMismatch) {
  Simulation a = make_sim();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt3.bin";
  save_checkpoint(path, a);
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation wrong(4, 2, 2, 8, p);
  EXPECT_THROW(load_checkpoint(path, wrong), PreconditionError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt4.bin";
  // mpcf-lint: allow(raw-io): corruption test must plant an invalid file without SafeFile's integrity machinery
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  Simulation a = make_sim();
  EXPECT_THROW(load_checkpoint(path, a), PreconditionError);
  std::remove(path.c_str());
}

TEST(Checkpoint, CompressesQuiescentStateWell) {
  // A freshly initialized (mostly uniform) state compresses strongly even
  // though the encoding is lossless.
  Simulation a = make_sim();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt5.bin";
  const auto bytes = save_checkpoint(path, a);
  const auto raw = a.grid().cell_count() * sizeof(Cell);
  EXPECT_LT(bytes, raw / 2);
  std::remove(path.c_str());
}

/// Every state byte of `g` as one contiguous copy, SFC block order.
std::vector<std::uint8_t> concat_blocks(const Grid& g) {
  std::vector<std::uint8_t> raw;
  for (int b = 0; b < g.block_count(); ++b) {
    // mpcf-lint: allow(reinterpret-cast): the state compared as the raw bytes a checkpoint stores
    const auto* p = reinterpret_cast<const std::uint8_t*>(g.block(b).data());
    raw.insert(raw.end(), p, p + g.block(b).cells() * sizeof(Cell));
  }
  return raw;
}

/// The file as the tests read it: where each blob's stream lies.
struct ParsedFile {
  std::uint32_t chunks = 0;
  std::vector<std::uint64_t> offset, size;
  std::vector<std::uint32_t> crc;
  std::vector<std::vector<std::uint32_t>> ids;
};

ParsedFile parse(const std::vector<std::uint8_t>& file) {
  ParsedFile f;
  for (const test::ImageEntry& e : test::parse_image(file).entries) {
    ++f.chunks;
    f.offset.push_back(e.offset);
    f.size.push_back(e.size);
    f.crc.push_back(e.crc);
    f.ids.push_back(e.ids);
  }
  return f;
}

/// Writes `bytes` to `path` through SafeFile.
void write_image(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  SafeFile f(path);
  f.write(bytes.data(), bytes.size());
  f.commit();
}

/// Overwrites every state byte of `g` with xorshift noise: deflate cannot
/// shrink it, so each chunk's stream comes out larger than its cells.
void fill_noise(Grid& g) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int b = 0; b < g.block_count(); ++b) {
    // mpcf-lint: allow(reinterpret-cast): the state written as the raw bytes a checkpoint stores
    auto* p = reinterpret_cast<std::uint8_t*>(g.block(b).data());
    for (std::size_t i = 0; i < g.block(b).cells() * sizeof(Cell); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      p[i] = static_cast<std::uint8_t>(x);
    }
  }
}

using test::Threads;

TEST(Checkpoint, ChunkStreamsAreRleBytePlanesOfWholeBlocks) {
  // The format, decoded independently: blobs of whole blocks in SFC order,
  // floor(1 MiB / block bytes) blocks each (the last one short), each an own
  // zlib stream of the blob's 28 byte planes under its blocks' ids, tiled
  // back to back after the directory, each with its CRC32.
  Grid g(2, 2, 3, 16, 1e-3);  // 9 blocks of 112 KiB per chunk: chunks of 9 and 3
  set_cloud_ic(g, {{0.5e-3, 0.5e-3, 0.7e-3, 0.3e-3}}, TwoPhaseIC{});
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt6.bin";
  save_grid_checkpoint(path, g, 0.25, 7);
  const std::vector<std::uint8_t> file = read_file(path);
  ASSERT_EQ(std::memcmp(file.data(), "MPCFCNT1", 8), 0);
  ASSERT_EQ(std::memcmp(file.data() + 12, "PLRL", 4), 0);
  const ParsedFile f = parse(file);
  ASSERT_EQ(f.chunks, 2u);
  EXPECT_EQ(f.offset.back() + f.size.back(), file.size());

  const std::vector<std::uint8_t> raw = concat_blocks(g);
  const std::size_t block_bytes = 16 * 16 * 16 * sizeof(Cell);
  const int first_blocks[] = {0, 9, 12};
  for (std::uint32_t c = 0; c < f.chunks; ++c) {
    SCOPED_TRACE(testing::Message() << "chunk " << c);
    const std::uint8_t* stream = file.data() + f.offset[c];
    EXPECT_EQ(crc32_bytes(stream, f.size[c]), f.crc[c]);
    std::vector<std::uint32_t> ids(static_cast<std::size_t>(first_blocks[c + 1] - first_blocks[c]));
    std::iota(ids.begin(), ids.end(), static_cast<std::uint32_t>(first_blocks[c]));
    EXPECT_EQ(f.ids[c], ids);
    const std::size_t cells =
        static_cast<std::size_t>(first_blocks[c + 1] - first_blocks[c]) * 16 * 16 * 16;
    std::vector<std::uint8_t> planes(cells * sizeof(Cell));
    uLongf len = static_cast<uLongf>(planes.size());
    ASSERT_EQ(uncompress(planes.data(), &len, stream, static_cast<uLong>(f.size[c])), Z_OK);
    ASSERT_EQ(len, planes.size());
    const std::uint8_t* cell0 = raw.data() + first_blocks[c] * block_bytes;
    std::vector<std::uint8_t> expected(planes.size());
    for (std::size_t k = 0; k < sizeof(Cell); ++k)
      for (std::size_t i = 0; i < cells; ++i) expected[k * cells + i] = cell0[i * sizeof(Cell) + k];
    EXPECT_TRUE(planes == expected) << "the stream does not hold the chunk's byte planes";
    // The encoder: one Z_RLE deflate of the planes, as one-shot zlib makes it.
    z_stream zs{};
    ASSERT_EQ(deflateInit2(&zs, 1, Z_DEFLATED, 15, 8, Z_RLE), Z_OK);
    std::vector<std::uint8_t> oneshot(deflateBound(&zs, static_cast<uLong>(planes.size())));
    zs.next_in = planes.data();
    zs.avail_in = static_cast<uInt>(planes.size());
    zs.next_out = oneshot.data();
    zs.avail_out = static_cast<uInt>(oneshot.size());
    ASSERT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
    oneshot.resize(zs.total_out);
    deflateEnd(&zs);
    EXPECT_TRUE(std::vector<std::uint8_t>(stream, stream + f.size[c]) == oneshot);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BytesAndLoadsDoNotDependOnTheWorkerCount) {
  // The chunk partition is a function of the grid shape only: one state
  // saved on 1, 2, 4 and 8 workers gives one file, and it loads to the same
  // state on each. The streamed save writes exactly the image of the blobs
  // the in-memory encoder returns, whatever the order chunks finish in.
  Grid a(2, 2, 1, 32, 1e-3);  // one block of 32^3 per chunk: 4 chunks
  set_cloud_ic(a, {{0.4e-3, 0.5e-3, 0.2e-3, 0.3e-3}}, TwoPhaseIC{});
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt7.bin";
  const ContainerHeader header = checkpoint_header(2, 2, 1, 32, 0.5, a.h() * a.cells_x(), 2);
  std::vector<std::uint8_t> first;
  for (const int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const Threads scope(workers);
    save_grid_checkpoint(path, a, 0.5, 2);
    const std::vector<std::uint8_t> bytes = read_file(path);
    if (first.empty()) first = bytes;
    EXPECT_TRUE(bytes == first);
    const std::vector<Blob> blobs = encode_blobs(checkpoint_plan(a, global_block_ids(a, 2, 2, 1)));
    EXPECT_TRUE(bytes == test::image_of(header, blobs));
    Grid b(2, 2, 1, 32, 1e-3);
    load_grid_checkpoint(path, b);
    EXPECT_TRUE(concat_blocks(b) == concat_blocks(a));
  }
  EXPECT_EQ(parse(first).chunks, 4u);
  std::remove(path.c_str());
}

TEST(Checkpoint, AStreamedSaveOfManyChunksIsTheImageOfTheEncodedBlobs) {
  // 24 chunks of 9 blocks of 16^3 on up to 8 workers: more chunks than the
  // window holds, so chunks wait on it and finish out of order.
  Grid a(6, 6, 6, 16, 1e-3);
  set_cloud_ic(a, {{0.5e-3, 0.5e-3, 0.5e-3, 0.3e-3}}, TwoPhaseIC{});
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt10.bin";
  const ContainerHeader header = checkpoint_header(6, 6, 6, 16, 0.25, a.h() * a.cells_x(), 9);
  for (const int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const Threads scope(workers);
    const std::vector<Blob> blobs = encode_blobs(checkpoint_plan(a, global_block_ids(a, 6, 6, 6)));
    ASSERT_EQ(blobs.size(), 24u);
    save_grid_checkpoint(path, a, 0.25, 9);
    EXPECT_TRUE(read_file(path) == test::image_of(header, blobs));
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BrokenChunkStreamUnderValidCrcsLeavesGridUntouched) {
  // A chunk whose directory CRC and the header CRC are right but whose
  // stream is not — a flipped byte mid-stream, or a bad adler32 trailer that
  // only shows once the chunk has inflated — must be rejected before any
  // block is written, in the first chunk as in the last: the target state
  // stays bit-identical and its clock unchanged.
  Simulation::Params p;
  p.extent = 1e-3;
  Grid a(2, 2, 3, 16, p.extent);  // chunks of 9 and 3 blocks
  set_cloud_ic(a, {{0.5e-3, 0.5e-3, 0.7e-3, 0.3e-3}}, TwoPhaseIC{});
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt8.bin";
  save_grid_checkpoint(path, a, 1e-6, 5);
  const std::vector<std::uint8_t> good = read_file(path);
  const ParsedFile f = parse(good);
  ASSERT_EQ(f.chunks, 2u);

  Simulation b(2, 2, 3, 16, p);  // same shape, different state
  set_cloud_ic(b.grid(), {}, TwoPhaseIC{});
  const std::vector<std::uint8_t> before = concat_blocks(b.grid());
  for (const std::uint32_t c : {0u, f.chunks - 1})
    for (const std::uint64_t at : {f.size[c] / 2, f.size[c] - 2}) {
      SCOPED_TRACE(testing::Message() << "chunk " << c << ", stream byte " << at << " of "
                                      << f.size[c]);
      std::vector<std::uint8_t> bad = good;
      bad[f.offset[c] + at] ^= 0x5a;
      test::reseal(bad);  // the blob's CRC in its directory entry, then the header's
      const std::string bad_path = ::testing::TempDir() + "/mpcf_ckpt8_bad.bin";
      write_image(bad_path, bad);

      try {
        load_checkpoint(bad_path, b);
        ADD_FAILURE() << "broken stream accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("blob " + std::to_string(c)), std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(concat_blocks(b.grid()) == before);
      EXPECT_EQ(b.step_count(), 0);
      std::remove(bad_path.c_str());
    }
  std::remove(path.c_str());
}

TEST(Checkpoint, IncompressibleChunksAndAShortLastChunkRoundTrip) {
  // Noise makes every stream larger than its chunk's cells (the writer's
  // output grows past the raw size, a load reads each stream in many
  // pieces), and 11 blocks of 16^3 leave a last chunk of 2 blocks.
  Grid a(1, 1, 11, 16, 1e-3);
  fill_noise(a);
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt9.bin";
  const std::uint64_t bytes = save_grid_checkpoint(path, a, 1.5, 3);
  const ParsedFile f = parse(read_file(path));
  ASSERT_EQ(f.chunks, 2u);
  EXPECT_GT(f.size[0], 9u * 16 * 16 * 16 * sizeof(Cell));
  EXPECT_GT(f.size[1], 2u * 16 * 16 * 16 * sizeof(Cell));
  EXPECT_GT(bytes, a.cell_count() * sizeof(Cell));

  Grid b(1, 1, 11, 16, 1e-3);
  const CheckpointClock clock = load_grid_checkpoint(path, b);
  EXPECT_EQ(clock.time, 1.5);
  EXPECT_EQ(clock.steps, 3);
  EXPECT_TRUE(concat_blocks(b) == concat_blocks(a));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::io
