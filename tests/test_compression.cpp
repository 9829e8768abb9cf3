// Tests of the compression pipeline and the dump file format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <random>

#include "compression/pipeline.h"
#include "eos/stiffened_gas.h"
#include "io/compressed_file.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf::compression {
namespace {

/// A small cloud-like grid: smooth pressure, sharp Gamma interfaces.
Grid make_cloud_grid() {
  Grid g(2, 2, 2, 16, 1e-3);
  std::vector<Bubble> bubbles{{0.3e-3, 0.3e-3, 0.4e-3, 0.12e-3},
                              {0.7e-3, 0.6e-3, 0.6e-3, 0.15e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
  return g;
}

TEST(Compressor, LosslessRoundTripAtZeroThreshold) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.eps = 0.0f;
  p.quantity = Q_G;
  const auto cq = compress_quantity_pipelined(g, p);
  const auto field = decompress_to_field(cq);
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix)
        EXPECT_NEAR(field(ix, iy, iz), g.cell(ix, iy, iz).G,
                    2e-5f * (1 + std::fabs(g.cell(ix, iy, iz).G)));
}

TEST(Compressor, LossyErrorBoundedByGuaranteedMode) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.eps = 1e-3f;
  p.mode = wavelet::ThresholdMode::kGuaranteed;
  p.quantity = Q_G;
  const auto cq = compress_quantity_pipelined(g, p);
  const auto field = decompress_to_field(cq);
  float maxerr = 0;
  for (int iz = 0; iz < g.cells_z(); ++iz)
    for (int iy = 0; iy < g.cells_y(); ++iy)
      for (int ix = 0; ix < g.cells_x(); ++ix)
        maxerr = std::max(maxerr, std::fabs(field(ix, iy, iz) - g.cell(ix, iy, iz).G));
  EXPECT_LE(maxerr, p.eps * 1.001f);
}

TEST(Compressor, GammaCompressesWell) {
  // Paper Section 7: Gamma compresses at 100-150:1 on trillion-cell grids
  // because it is piecewise constant. The rate grows with grid size (the
  // interface shell thins out); at 64^3 expect a solid double-digit rate.
  Grid g(2, 2, 2, 32, 1e-3);
  std::vector<Bubble> bubbles{{0.3e-3, 0.3e-3, 0.4e-3, 0.12e-3},
                              {0.7e-3, 0.6e-3, 0.6e-3, 0.15e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
  CompressionParams p;
  p.eps = 1e-2f;
  p.quantity = Q_G;
  const auto cq = compress_quantity_pipelined(g, p);
  EXPECT_GT(cq.compression_rate(), 20.0);
}

TEST(Compressor, PressureCompressesWorseThanGamma) {
  // Paper: p has broader spatiotemporal scales and compresses 5-10x worse.
  Grid g = make_cloud_grid();
  CompressionParams pg;
  pg.eps = 1e-3f;
  pg.quantity = Q_G;
  CompressionParams pp;
  pp.derive_pressure = true;
  // Matching relative threshold: pressure spans ~1e7 Pa, Gamma ~2.3.
  pp.eps = 1e-3f * 0.5e7f;
  Grid g2 = make_cloud_grid();
  const double rate_G = compress_quantity_pipelined(g, pg).compression_rate();
  const double rate_p = compress_quantity_pipelined(g2, pp).compression_rate();
  EXPECT_GT(rate_G, rate_p * 0.8);  // G at least comparable, normally far better
}

TEST(Compressor, RateIncreasesWithThreshold) {
  Grid g = make_cloud_grid();
  double prev = 0;
  for (float eps : {0.0f, 1e-5f, 1e-3f, 1e-1f}) {
    CompressionParams p;
    p.eps = eps;
    p.quantity = Q_G;
    const double rate = compress_quantity_pipelined(g, p).compression_rate();
    EXPECT_GE(rate, prev * 0.99) << "eps=" << eps;
    prev = rate;
  }
}

TEST(Compressor, AllBlocksAppearExactlyOnce) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.quantity = Q_RHO;
  const auto cq = compress_quantity_pipelined(g, p);
  std::vector<int> seen(g.block_count(), 0);
  for (const auto& s : cq.streams)
    for (auto id : s.block_ids) seen[id]++;
  for (int i = 0; i < g.block_count(); ++i) EXPECT_EQ(seen[i], 1) << "block " << i;
}

TEST(Compressor, WorkerTimesReported) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.quantity = Q_G;
  PipelineStats stats;
  (void)compress_quantity_pipelined(g, p, &stats);
  ASSERT_FALSE(stats.worker_times.empty());
  double dec = 0;
  for (const auto& t : stats.worker_times) dec += t.dec;
  EXPECT_GT(dec, 0.0);
}

TEST(Compressor, NoEmptyStreamsLeaveThePipeline) {
  // One block, many workers: every worker but one is idle, and no empty
  // stream may reach the file (the container refuses a blob of no block).
  Grid g(1, 1, 1, 16, 1e-3);
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  set_cloud_ic(g, one, TwoPhaseIC{});
  CompressionParams p;
  p.quantity = Q_G;
  const test::Threads eight(8);
  const auto cq = compress_quantity_pipelined(g, p);
  ASSERT_EQ(cq.streams.size(), 1u);
  EXPECT_EQ(cq.streams[0].block_ids.size(), 1u);
  EXPECT_FALSE(cq.streams[0].data.empty());
}

TEST(Compressor, DerivedPressureGuardsNearVacuumDensity) {
  // Cells floored to (near-)zero density must not produce inf/NaN derived
  // pressure coefficients that poison the wavelet stream of the block.
  Grid g = make_cloud_grid();
  Cell& c = g.cell(3, 4, 5);
  c.rho = 0;
  c.ru = 1e3f;
  CompressionParams p;
  p.derive_pressure = true;
  p.eps = 0.0f;
  const auto cq = compress_quantity_pipelined(g, p);
  const auto field = decompress_to_field(cq);
  for (int iz = 0; iz < 32; ++iz)
    for (int iy = 0; iy < 32; ++iy)
      for (int ix = 0; ix < 32; ++ix)
        ASSERT_TRUE(std::isfinite(field(ix, iy, iz)))
            << "at " << ix << "," << iy << "," << iz;
}

TEST(Compressor, DecompressQuantityWritesBackIntoGrid) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.eps = 0.0f;
  p.quantity = Q_RHO;
  const auto cq = compress_quantity_pipelined(g, p);
  Grid g2(2, 2, 2, 16, 1e-3);  // empty target
  decompress_quantity(cq, g2);
  EXPECT_NEAR(g2.cell(5, 6, 7).rho, g.cell(5, 6, 7).rho, 1e-3f);
  EXPECT_NEAR(g2.cell(20, 10, 30).rho, g.cell(20, 10, 30).rho, 1e-3f);
}

TEST(Compressor, DerivedPressureFieldIsPhysical) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.derive_pressure = true;
  p.eps = 0.0f;
  const auto cq = compress_quantity_pipelined(g, p);
  const auto field = decompress_to_field(cq);
  // pure-liquid corner ~100 bar, bubble centers near vapor pressure
  EXPECT_NEAR(field(0, 0, 0), materials::kLiquidPressure,
              2e-2 * materials::kLiquidPressure);
  EXPECT_THROW(
      {
        Grid g2(2, 2, 2, 16, 1e-3);
        decompress_quantity(cq, g2);
      },
      PreconditionError);
}

TEST(CompressedFile, RoundTripThroughDisk) {
  Grid g = make_cloud_grid();
  CompressionParams p;
  p.eps = 1e-3f;
  p.quantity = Q_G;
  const auto cq = compress_quantity_pipelined(g, p);
  const std::string path = ::testing::TempDir() + "/mpcf_dump_test.cq";
  const auto written = io::write_compressed(path, cq);
  EXPECT_GT(written, 0u);

  const auto rt = io::read_compressed(path);
  EXPECT_EQ(rt.bx, cq.bx);
  EXPECT_EQ(rt.block_size, cq.block_size);
  EXPECT_EQ(rt.levels, cq.levels);
  EXPECT_FLOAT_EQ(rt.eps, cq.eps);
  EXPECT_EQ(rt.quantity, cq.quantity);
  ASSERT_EQ(rt.streams.size(), cq.streams.size());
  for (std::size_t s = 0; s < rt.streams.size(); ++s) {
    EXPECT_EQ(rt.streams[s].block_ids, cq.streams[s].block_ids);
    EXPECT_EQ(rt.streams[s].raw_bytes, cq.streams[s].raw_bytes);
    EXPECT_EQ(rt.streams[s].data, cq.streams[s].data);
  }
  // Field reconstructed from disk matches in-memory reconstruction exactly.
  const auto f1 = decompress_to_field(cq);
  const auto f2 = decompress_to_field(rt);
  for (std::size_t i = 0; i < f1.size(); ++i) EXPECT_EQ(f1.data()[i], f2.data()[i]);
  std::remove(path.c_str());
}

TEST(CompressedFile, RejectsCorruptMagic) {
  const std::string path = ::testing::TempDir() + "/mpcf_bad_magic.cq";
  // mpcf-lint: allow(raw-io): corruption test must plant an invalid file without SafeFile's integrity machinery
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::vector<char> junk(128, 'x');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  EXPECT_THROW((void)io::read_compressed(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(CompressedFile, RejectsMissingFile) {
  EXPECT_THROW((void)io::read_compressed("/nonexistent/path/foo.cq"), PreconditionError);
}

}  // namespace
}  // namespace mpcf::compression
