// Conformance and correctness tests of the one compressor, the pipelined
// multi-threaded dump path (DESIGN.md §13): its decoded output against the
// codec-free per-block transform oracle at every worker count,
// deterministic file layout, the container the dump writes, parameter
// validation, and fault injection through the container writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <bit>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "compression/pipeline.h"
#include "container_image.h"
#include "io/compressed_file.h"
#include "io/fault_injection.h"
#include "io/safe_file.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf::compression {
namespace {

namespace fs = std::filesystem;

Grid make_grid() {
  Grid g(4, 4, 4, 8, 1e-3);
  std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                              {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(g, bubbles, TwoPhaseIC{});
  return g;
}

CompressionParams make_params() {
  CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  return p;
}

/// Bit patterns, not values: +0.0f and -0.0f must not compare equal here.
void expect_fields_bitwise_equal(const Field3D<float>& a, const Field3D<float>& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.nz(), b.nz());
  for (int iz = 0; iz < a.nz(); ++iz)
    for (int iy = 0; iy < a.ny(); ++iy)
      for (int ix = 0; ix < a.nx(); ++ix)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a(ix, iy, iz)),
                  std::bit_cast<std::uint32_t>(b(ix, iy, iz)))
            << "at " << ix << "," << iy << "," << iz << ": " << a(ix, iy, iz) << " vs "
            << b(ix, iy, iz);
}

// --- Conformance: stage graph vs the transform oracle ----------------------

/// The dump's lossy content without any entropy stage: every block's
/// quantity through forward_3d_simd -> decimate -> inverse_3d, in memory.
Field3D<float> transform_oracle(const Grid& g, const CompressionParams& p) {
  const int bs = g.block_size();
  const int levels = wavelet::max_levels(bs);
  Field3D<float> out(g.cells_x(), g.cells_y(), g.cells_z());
  Field3D<float> cube(bs, bs, bs);
  for (int b = 0; b < g.block_count(); ++b) {
    gather_block_quantity(g.block(b), bs, p, cube.data());
    wavelet::forward_3d_simd(cube.view(), levels);
    wavelet::decimate(cube.view(), levels, p.eps, p.mode);
    wavelet::inverse_3d(cube.view(), levels);
    int bx, by, bz;
    g.indexer().coords(b, bx, by, bz);
    for (int iz = 0; iz < bs; ++iz)
      for (int iy = 0; iy < bs; ++iy)
        for (int ix = 0; ix < bs; ++ix)
          out(bx * bs + ix, by * bs + iy, bz * bs + iz) = cube(ix, iy, iz);
  }
  return out;
}

TEST(PipelineConformance, MatchesSynchronousPathForEveryWorkerCount) {
  // The stage graph's output is the oracle's for every worker count: the
  // per-block FWT + decimation decoded through the entropy stage, bit for
  // bit, whatever the stream partition.
  const Grid g = make_grid();
  const auto oracle = transform_oracle(g, make_params());
  for (const int workers : {1, 2, 8}) {
    const test::Threads scope(workers);
    PipelineStats stats;
    const auto cq = compress_quantity_pipelined(g, make_params(), &stats);
    EXPECT_EQ(stats.chunks, pipeline_chunk_count(g.block_count(), workers));
    EXPECT_EQ(static_cast<int>(cq.streams.size()), stats.chunks);
    expect_fields_bitwise_equal(decompress_to_field(cq), oracle);
  }
}

TEST(PipelineConformance, DecodedDumpEqualsCodecFreeTransformOracle) {
  // The entropy stage must be invisible in the decoded field: a pipelined
  // dump read back from disk equals, bit for bit, the per-block transform
  // and decimation applied in memory. Covers the production quantities at
  // their production thresholds and a lossless (eps = 0) dump of a momentum
  // component carrying signed zeros: cell (0,0,0) of every block is a
  // coarse coefficient at every level, so a -0.0f there reaches the entropy
  // stage unchanged and must come back as -0.0f.
  Grid g = make_grid();
  for (int b = 0; b < g.block_count(); ++b) {
    g.block(b)(0, 0, 0).ru = -0.0f;
    g.block(b)(2, 4, 6).ru = -0.0f;
  }
  const test::Threads two(2);
  CompressionParams pg = make_params();
  pg.eps = 2.3e-3f;
  CompressionParams pp = make_params();
  pp.derive_pressure = true;
  pp.eps = 1e5f;
  CompressionParams pru = make_params();
  pru.quantity = Q_RU;
  pru.eps = 0.0f;
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_oracle.cq";
  for (const CompressionParams& p : {pg, pp, pru}) {
    SCOPED_TRACE(p.derive_pressure ? "p" : p.quantity == Q_G ? "G" : "ru");
    dump_quantity_pipelined(g, p, path);
    const Field3D<float> oracle = transform_oracle(g, p);
    expect_fields_bitwise_equal(decompress_to_field(io::read_compressed(path)), oracle);
  }
  ASSERT_TRUE(std::signbit(transform_oracle(g, pru)(0, 0, 0)))
      << "fixture no longer carries a signed zero through the transform";
  std::remove(path.c_str());
}

TEST(PipelineConformance, StreamsAreOrderedByBlockId) {
  // Stream order is fixed by block id — chunk c always lands at streams[c]
  // regardless of which worker finished it first.
  const Grid g = make_grid();
  const test::Threads eight(8);
  const auto cq = compress_quantity_pipelined(g, make_params());
  std::vector<std::uint32_t> ids;
  for (const auto& s : cq.streams) {
    ASSERT_FALSE(s.block_ids.empty());
    ids.insert(ids.end(), s.block_ids.begin(), s.block_ids.end());
  }
  std::vector<std::uint32_t> expected(g.block_count());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(ids, expected);
}

TEST(PipelineConformance, EmittedFileIsBitwiseStableRunToRun) {
  // For a fixed worker count the emitted file bytes depend only on the
  // data — never on scheduling.
  const Grid g = make_grid();
  const std::string a = ::testing::TempDir() + "/mpcf_pipe_det_a.cq";
  const std::string b = ::testing::TempDir() + "/mpcf_pipe_det_b.cq";
  const test::Threads eight(8);
  const auto params = make_params();
  dump_quantity_pipelined(g, params, a);
  dump_quantity_pipelined(g, params, b);
  EXPECT_EQ(io::read_file(a), io::read_file(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(PipelineConformance, ChunkCountIsAPureFunctionOfShapeAndWorkers) {
  EXPECT_EQ(pipeline_chunk_count(0, 4), 0);
  EXPECT_EQ(pipeline_chunk_count(3, 4), 3);    // capped at the block count
  EXPECT_EQ(pipeline_chunk_count(64, 1), 4);   // 4 chunks per worker
  EXPECT_EQ(pipeline_chunk_count(64, 4), 16);
  EXPECT_EQ(pipeline_chunk_count(64, 100), 64);
}

// --- The container the dump writes ---------------------------------------

TEST(PipelineDump, WritesTheContainerWithTheWaveletPayload) {
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_container.cq";
  const test::Threads two(2);
  PipelineStats stats;
  const double rate = dump_quantity_pipelined(g, make_params(), path, &stats);
  EXPECT_GT(rate, 1.0);
  EXPECT_EQ(stats.bytes_written, fs::file_size(path));
  EXPECT_GT(stats.workers, 0);

  const auto bytes = io::read_file(path);
  ASSERT_GE(bytes.size(), 80u);
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 8), "MPCFCNT1");
  EXPECT_EQ(std::string(bytes.begin() + 12, bytes.begin() + 16), "SPZL");
  // One blob per stream, in block-id order, back to back from the end of
  // the directory to the end of the file.
  const test::ContainerImage img = test::parse_image(bytes);
  ASSERT_EQ(static_cast<int>(img.entries.size()), stats.chunks);
  std::uint64_t at = test::blob_area(bytes);
  std::uint32_t next = 0;
  for (const test::ImageEntry& e : img.entries) {
    EXPECT_EQ(e.offset, at);
    at += e.size;
    for (const std::uint32_t id : e.ids) EXPECT_EQ(id, next++);
  }
  EXPECT_EQ(at, bytes.size());
  expect_fields_bitwise_equal(decompress_to_field(io::read_compressed(path)),
                              transform_oracle(g, make_params()));
  std::remove(path.c_str());
}

TEST(PipelineDump, StreamedFileIsTheImageOfTheInMemoryStreams) {
  // The streamed dump writes each stream once it and every stream before it
  // are encoded, 4 chunks per worker through a window of 2 per worker: its
  // bytes are the image of the streams compress_quantity_pipelined returns,
  // at every worker count, and its stats account for what it wrote.
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_streamed.cq";
  for (const int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    const test::Threads scope(workers);
    PipelineStats stats;
    const double rate = dump_quantity_pipelined(g, make_params(), path, &stats);
    CompressedQuantity cq = compress_quantity_pipelined(g, make_params());
    EXPECT_DOUBLE_EQ(rate, cq.compression_rate());
    EXPECT_EQ(stats.chunks, static_cast<int>(cq.streams.size()));
    EXPECT_EQ(stats.workers, workers);
    EXPECT_EQ(stats.worker_times.size(), static_cast<std::size_t>(workers));
    EXPECT_EQ(stats.compressed_bytes, cq.compressed_bytes());
    EXPECT_EQ(stats.uncompressed_bytes, cq.uncompressed_bytes());
    EXPECT_GT(stats.write_seconds, 0.0);
    const io::ContainerHeader header = io::dump_header(cq);
    std::vector<io::Blob> blobs;
    for (auto& stream : cq.streams) blobs.push_back(io::stream_blob(std::move(stream)));
    const std::vector<std::uint8_t> bytes = io::read_file(path);
    EXPECT_EQ(bytes.size(), stats.bytes_written);
    EXPECT_TRUE(bytes == test::image_of(header, blobs));
  }
  std::remove(path.c_str());
}

// --- The dump's blob plan ---------------------------------------------------

TEST(DumpPlan, AWorkerBeyondItsDumpWorkersIsNamed) {
  // DumpWorkers holds one buffer per worker of the width it was made at; a
  // save run wider than that must fail by name, not index past it.
  const Grid g = make_grid();
  const CompressionParams p = make_params();
  std::unique_ptr<DumpWorkers> workers;
  {
    const test::Threads one(1);
    workers = std::make_unique<DumpWorkers>();
  }
  const test::Threads four(4);
  const io::BlobPlan plan = dump_plan(g, p, std::vector<std::uint32_t>(64, 0), *workers);
  EXPECT_NO_THROW((void)plan.encode(0, 0));
  try {
    (void)plan.encode(1, 3);
    FAIL() << "worker 3 of 1 accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("worker 3"), std::string::npos) << e.what();
  }
}

// --- Fault injection through the container writer -------------------------

TEST(PipelineFault, InjectedWriteFailureWithTwoWorkersFailsCleanly) {
  struct FaultGuard {
    ~FaultGuard() { io::fault::disarm(); }
  } guard;
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_fault.cq";
  std::remove(path.c_str());
  const test::Threads two(2);
  io::fault::arm({io::fault::Kind::kEnospc, 0, 0, 0});
  EXPECT_THROW(dump_quantity_pipelined(g, make_params(), path),
               IoError);
  EXPECT_TRUE(io::fault::fired());
  EXPECT_FALSE(fs::exists(path)) << "failed pipelined dump published a file";
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(PipelineFault, EnvInjectedFaultPassesWithTwoWorkers) {
  // CI leg: run with MPCF_IO_FAULT=enospc:0 (io-pipeline job); without the
  // env knob the test is skipped.
  if (std::getenv("MPCF_IO_FAULT") == nullptr)
    GTEST_SKIP() << "MPCF_IO_FAULT not set";
  struct FaultGuard {
    ~FaultGuard() { io::fault::disarm(); }
  } guard;
  io::fault::arm_from_env();
  ASSERT_TRUE(io::fault::armed());
  const Grid g = make_grid();
  const std::string path = ::testing::TempDir() + "/mpcf_pipe_envfault.cq";
  std::remove(path.c_str());
  const test::Threads two(2);
  EXPECT_THROW(dump_quantity_pipelined(g, make_params(), path),
               IoError);
  EXPECT_TRUE(io::fault::fired());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // Disarmed again: the same dump goes through and verifies.
  io::fault::disarm();
  const double rate = dump_quantity_pipelined(g, make_params(), path);
  EXPECT_GT(rate, 1.0);
  EXPECT_NO_THROW((void)io::read_compressed(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::compression
