// Tests of the sparse significance coder and its pipeline integration.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "compression/pipeline.h"
#include "compression/sparse_coder.h"
#include "io/compressed_file.h"
#include "workload/cloud.h"

namespace mpcf::compression {
namespace {

TEST(SparseEncode, RoundTripDense) {
  std::vector<float> data{1.0f, -2.0f, 3.5f, 0.25f};
  const auto enc = sparse_encode(data.data(), data.size());
  std::vector<float> out(data.size());
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(SparseEncode, RoundTripAllZeros) {
  std::vector<float> data(1000, 0.0f);
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_LT(enc.size(), 16u);  // a varint count + one run entry
  std::vector<float> out(data.size(), 1.0f);
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

TEST(SparseEncode, RoundTripEmpty) {
  const auto enc = sparse_encode(nullptr, 0);
  std::vector<float> out;
  sparse_decode(enc, out.data(), 0);
  EXPECT_GE(enc.size(), 1u);
}

TEST(SparseEncode, SignedZerosRoundTripBitwise) {
  // -0.0f compares equal to +0.0f but is a different value: the coder must
  // not fold it into a zero run (which decodes as +0.0f).
  const std::vector<float> data{-0.0f, +0.0f, 1.5f, -0.0f};
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_EQ(enc.size(), sparse_encoded_size(data.data(), data.size()));
  std::vector<float> out(data.size(), 7.0f);
  sparse_decode(enc, out.data(), out.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]), std::bit_cast<std::uint32_t>(data[i]))
        << "element " << i << " decoded as " << out[i];
}

class SparseRandomTest : public ::testing::TestWithParam<double> {};

TEST_P(SparseRandomTest, RoundTripAtSparsity) {
  const double density = GetParam();
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> val(-5, 5);
  std::bernoulli_distribution keep(density);
  std::vector<float> data(4096);
  for (auto& v : data) v = keep(rng) ? val(rng) : 0.0f;
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_EQ(enc.size(), sparse_encoded_size(data.data(), data.size()));
  std::vector<float> out(data.size());
  sparse_decode(enc, out.data(), out.size());
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Sparsity, SparseRandomTest,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 0.99, 1.0));

TEST(SparseEncode, BeatsRawOnSparseData) {
  std::vector<float> data(8192, 0.0f);
  for (int i = 0; i < 100; ++i) data[i * 80] = 1.5f + i;
  const auto enc = sparse_encode(data.data(), data.size());
  EXPECT_LT(enc.size(), data.size() * sizeof(float) / 10);
}

TEST(SparseEncode, RejectsLengthMismatch) {
  std::vector<float> data{1.0f, 0.0f, 2.0f};
  const auto enc = sparse_encode(data.data(), data.size());
  std::vector<float> out(5);
  EXPECT_THROW(sparse_decode(enc, out.data(), 5), PreconditionError);
}

TEST(SparseEncode, RejectsTruncatedStream) {
  std::vector<float> data(64, 0.0f);
  data[10] = 3.0f;
  auto enc = sparse_encode(data.data(), data.size());
  enc.resize(enc.size() - 2);
  std::vector<float> out(64);
  EXPECT_THROW(sparse_decode(enc, out.data(), 64), PreconditionError);
}

TEST(SparsePipeline, RoundTripThroughCompressorAndFile) {
  Grid g(2, 2, 2, 16, 1e-3);
  std::vector<Bubble> one{Bubble{0.5e-3, 0.5e-3, 0.5e-3, 0.2e-3}};
  set_cloud_ic(g, one, TwoPhaseIC{});

  CompressionParams p;
  p.eps = 1e-2f;
  p.quantity = Q_G;
  const auto cq = compress_quantity_pipelined(g, p);
  // Decimation leaves mostly zeros: the significance-coded intermediate is
  // far smaller than the raw coefficients, before zlib even runs.
  std::uint64_t raw = 0;
  for (const auto& s : cq.streams) raw += s.raw_bytes;
  EXPECT_LT(raw, cq.uncompressed_bytes() / 4);

  // The file carries the streams unchanged and decodes to the same field.
  const std::string path = ::testing::TempDir() + "/mpcf_sparse.cq";
  io::write_compressed(path, cq);
  const auto f_mem = decompress_to_field(cq);
  const auto f_rt = decompress_to_field(io::read_compressed(path));
  ASSERT_EQ(f_rt.size(), f_mem.size());
  for (std::size_t i = 0; i < f_mem.size(); ++i) ASSERT_EQ(f_rt.data()[i], f_mem.data()[i]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::compression
