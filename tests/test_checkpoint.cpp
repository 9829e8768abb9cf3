// Tests of the bitwise-exact checkpoint/restart path.
#include <gtest/gtest.h>

#include <zlib.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "io/checkpoint.h"
#include "io/safe_file.h"
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

TEST(Checkpoint, StreamedPayloadEqualsOneShotCompress) {
  // The writer deflates block by block; the payload must be the bytes
  // compress2 at level 6 makes of a contiguous copy, so files stay
  // byte-identical to the one-shot writer's.
  Simulation a = make_sim();
  for (int s = 0; s < 3; ++s) a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt6.bin";
  save_checkpoint(path, a);
  const std::vector<std::uint8_t> file = read_file(path);
  const std::vector<std::uint8_t> raw = concat_blocks(a.grid());
  uLongf len = compressBound(static_cast<uLong>(raw.size()));
  std::vector<std::uint8_t> oneshot(len);
  ASSERT_EQ(compress2(oneshot.data(), &len, raw.data(), static_cast<uLong>(raw.size()), 6), Z_OK);
  oneshot.resize(len);
  ASSERT_EQ(file.size(), 72 + oneshot.size());
  EXPECT_EQ(std::memcmp(file.data() + 72, oneshot.data(), oneshot.size()), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, BrokenDeflateStreamUnderValidCrcsLeavesGridUntouched) {
  // A payload whose CRCs are right but whose deflate stream is not — a
  // flipped byte mid-stream, or a bad adler32 trailer that only shows once
  // every block has inflated — must be rejected before any block is
  // written: the target grid stays bit-identical.
  Simulation a = make_sim();
  for (int s = 0; s < 2; ++s) a.step();
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt7.bin";
  save_checkpoint(path, a);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GT(good.size(), 200u);

  for (const std::size_t at : {72 + (good.size() - 72) / 2, good.size() - 2}) {
    SCOPED_TRACE(testing::Message() << "byte " << at << " of " << good.size());
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0x5a;
    // Re-seal: the payload CRC at offset 68 covers the blob, the header CRC
    // at offset 8 covers bytes [12, 72).
    const std::uint32_t payload_crc = crc32_bytes(bad.data() + 72, bad.size() - 72);
    std::memcpy(bad.data() + 68, &payload_crc, 4);
    const std::uint32_t header_crc = crc32_bytes(bad.data() + 12, 60);
    std::memcpy(bad.data() + 8, &header_crc, 4);
    const std::string bad_path = ::testing::TempDir() + "/mpcf_ckpt7_bad.bin";
    {
      SafeFile f(bad_path);
      f.write(bad.data(), bad.size());
      f.commit();
    }

    Simulation b = make_sim();  // same shape, different (initial) state
    const std::vector<std::uint8_t> before = concat_blocks(b.grid());
    EXPECT_THROW(load_checkpoint(bad_path, b), PreconditionError);
    EXPECT_EQ(concat_blocks(b.grid()), before);
    EXPECT_EQ(b.step_count(), 0);
    std::remove(bad_path.c_str());
  }
  std::remove(path.c_str());
}

/// Overwrites the state of `g` with `noise` pseudo-random bytes followed by
/// zeros, in SFC block order: deflate stores the noise nearly verbatim and
/// squeezes the zeros, so the payload size follows `noise` byte by byte.
void fill_noise_prefix(Grid& g, std::size_t noise) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::size_t at = 0;
  for (int b = 0; b < g.block_count(); ++b) {
    // mpcf-lint: allow(reinterpret-cast): the state written as the raw bytes a checkpoint stores
    auto* p = reinterpret_cast<std::uint8_t*>(g.block(b).data());
    for (std::size_t i = 0; i < g.block(b).cells() * sizeof(Cell); ++i, ++at) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      p[i] = at < noise ? static_cast<std::uint8_t>(x) : 0;
    }
  }
}

TEST(Checkpoint, PayloadSpanningManyReadChunksLoads) {
  // A load reads the payload 64 KB at a time. Payloads of several chunks
  // must round-trip whether the stream's 4-byte adler32 trailer ends a
  // chunk exactly, straddles two chunks or sits inside the last one, and a
  // broken stream in a later chunk must still leave the grid untouched.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  Simulation::Params p;
  p.extent = 1e-3;
  Simulation a(4, 4, 4, 8, p);  // 896 KB of state
  const std::string path = ::testing::TempDir() + "/mpcf_ckpt8.bin";
  for (const std::uint64_t tail : {std::uint64_t{0}, std::uint64_t{2}, std::uint64_t{100}}) {
    SCOPED_TRACE(testing::Message() << "payload size % 64 KB = " << tail);
    // Walk the noise length until the payload leaves `tail` bytes in its
    // last chunk.
    std::size_t noise = 3 * kChunk;
    std::uint64_t payload = 0;
    for (int tries = 0; tries < 32; ++tries) {
      fill_noise_prefix(a.grid(), noise);
      payload = save_checkpoint(path, a) - 72;
      if (payload % kChunk == tail) break;
      noise += (tail + kChunk - payload % kChunk) % kChunk;
    }
    ASSERT_EQ(payload % kChunk, tail);
    ASSERT_GT(payload, 3 * kChunk);

    Simulation b(4, 4, 4, 8, p);
    load_checkpoint(path, b);
    ASSERT_EQ(concat_blocks(b.grid()), concat_blocks(a.grid()));
  }

  // Flip one byte in the third chunk and re-seal both CRCs.
  std::vector<std::uint8_t> bad = read_file(path);
  bad[72 + 2 * kChunk + 5] ^= 0x5a;
  const std::uint32_t payload_crc = crc32_bytes(bad.data() + 72, bad.size() - 72);
  std::memcpy(bad.data() + 68, &payload_crc, 4);
  const std::uint32_t header_crc = crc32_bytes(bad.data() + 12, 60);
  std::memcpy(bad.data() + 8, &header_crc, 4);
  {
    SafeFile f(path);
    f.write(bad.data(), bad.size());
    f.commit();
  }
  Simulation c(4, 4, 4, 8, p);
  const std::vector<std::uint8_t> before = concat_blocks(c.grid());
  EXPECT_THROW(load_checkpoint(path, c), PreconditionError);
  EXPECT_EQ(concat_blocks(c.grid()), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::io
