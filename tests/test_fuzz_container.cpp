// The deterministic mutator of the container fuzz target
// (fuzz_container.cpp). The corpus is files the library writes for the
// target's grid shape: node-layer and cluster checkpoints and `.cq` dumps,
// with one blob or several and with contiguous or scattered block ids. A
// fixed-seed generator makes bit flips (anywhere, and in the header and
// directory alone), truncations, splices of two files, overwrites of header
// and directory fields with boundary values, and inserted or appended
// bytes. Half of the mutants get their blob CRCs and header CRC resealed
// (tests/container_image.h), so that they pass the checksums and reach the
// field checks and the decoders. Every mutant must be rejected with a
// PreconditionError or decode; the budget is constant and runs in seconds.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "compression/pipeline.h"
#include "container_image.h"
#include "fuzz_container.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"
#include "omp_threads.h"
#include "workload/cloud.h"

namespace mpcf {
namespace {

/// Mutants per run: a constant budget, the same inputs on every run.
constexpr int kMutants = 10000;
constexpr std::uint64_t kSeed = 0x6d70636663756e74ull;

Grid corpus_grid() {
  Grid g(fuzz::kBlocks[0], fuzz::kBlocks[1], fuzz::kBlocks[2], fuzz::kBlockSize, fuzz::kExtent);
  const std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                                    {0.65e-3, 0.55e-3, 0.45e-3, 0.1e-3}};
  set_cloud_ic(g, bubbles, TwoPhaseIC{});
  return g;
}

/// Files of the target's grid shape, written by the library.
std::vector<std::vector<std::uint8_t>> make_corpus() {
  const std::string path = ::testing::TempDir() + "/mpcf_fuzz_corpus.bin";
  const Grid g = corpus_grid();
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto keep = [&] { corpus.push_back(io::read_file(path)); };

  (void)io::save_grid_checkpoint(path, g, 1.25e-6, 7);
  keep();
  compression::CompressionParams pg;
  pg.quantity = Q_G;
  pg.eps = 2.3e-3f;
  compression::CompressionParams pp;
  pp.derive_pressure = true;
  pp.eps = 1e5f;
  {
    const test::Threads two(2);
    compression::dump_quantity_pipelined(g, pg, path);
    keep();
  }
  {
    const test::Threads one(1);
    compression::dump_quantity_pipelined(g, pp, path);
    keep();
  }
  Simulation::Params params;
  params.extent = fuzz::kExtent;
  for (const cluster::CartTopology topo :
       {cluster::CartTopology(2, 1, 1), cluster::CartTopology(1, 2, 2)}) {
    cluster::ClusterSimulation cs(fuzz::kBlocks[0], fuzz::kBlocks[1], fuzz::kBlocks[2],
                                  fuzz::kBlockSize, topo, params);
    cs.scatter(g);
    (void)cs.save_checkpoint(path);
    keep();
    (void)cs.dump_collective(path, pg);
    keep();
  }
  std::remove(path.c_str());
  return corpus;
}

/// The seeded mutator.
class Mutator {
 public:
  explicit Mutator(const std::vector<std::vector<std::uint8_t>>& corpus)
      : corpus_(corpus), rng_(kSeed) {}

  /// The next mutant and a name of what was done to it.
  std::vector<std::uint8_t> next(std::string& what) {
    const auto& base = corpus_[pick(corpus_.size())];
    std::vector<std::uint8_t> m = base;
    // The header and directory: where a flip reaches the field checks.
    const std::size_t head = std::min(m.size(), test::blob_area(base));
    switch (pick(6)) {
      case 0: {
        what = "bit flips";
        for (std::size_t n = 1 + pick(4); n > 0; --n) flip(m, pick(m.size()));
        break;
      }
      case 1: {
        what = "header bit flips";
        for (std::size_t n = 1 + pick(3); n > 0; --n) flip(m, pick(head));
        break;
      }
      case 2: {
        what = "truncation";
        m.resize(pick(m.size()));
        break;
      }
      case 3: {
        what = "splice";
        const auto& other = corpus_[pick(corpus_.size())];
        const std::size_t cut = pick(m.size() + 1);
        const std::size_t from = pick(other.size() + 1);
        m.resize(cut);
        m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
        break;
      }
      case 4: {
        what = "field overwrite";
        static constexpr std::array<std::uint64_t, 10> kValues = {
            0, 1, 2, 7, 64, 65, 0x7fffffffull, 0xffffffffull, 1ull << 32, ~0ull};
        const std::size_t width = pick(2) == 0 ? 4 : 8;
        if (head < width) break;
        const std::size_t at = pick(head - width + 1) & ~std::size_t{3};
        std::uint64_t v = kValues[pick(kValues.size())];
        if (pick(2) == 0) {  // near the value already there
          std::memcpy(&v, m.data() + at, width);
          v += static_cast<std::uint64_t>(static_cast<std::int64_t>(pick(9)) - 4);
        }
        std::memcpy(m.data() + at, &v, width);
        break;
      }
      default: {
        what = "inserted bytes";
        const std::size_t at = pick(m.size() + 1);
        std::vector<std::uint8_t> junk(1 + pick(16));
        for (auto& b : junk) b = static_cast<std::uint8_t>(pick(256));
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(), junk.end());
        break;
      }
    }
    if (pick(2) == 0) {
      test::reseal(m);
      what += " + reseal";
    }
    return m;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }
  void flip(std::vector<std::uint8_t>& m, std::size_t at) {
    if (at < m.size()) m[at] ^= static_cast<std::uint8_t>(1u << pick(8));
  }

  const std::vector<std::vector<std::uint8_t>>& corpus_;
  std::mt19937_64 rng_;
};

/// The error kind of a rejection: its message with numbers and quoted
/// names blanked, so messages differing only in those count once.
std::string kind_of(const std::string& msg) {
  std::string kind;
  bool quoted = false;
  for (const char c : msg) {
    if (c == '\'') {
      quoted = !quoted;
      if (quoted) kind += "'?'";
    } else if (!quoted && (c < '0' || c > '9')) {
      kind += c;
    } else if (!quoted && (kind.empty() || kind.back() != '#')) {
      kind += '#';
    }
  }
  return kind;
}

TEST(FuzzContainer, CorpusDecodesThroughTheTarget) {
  const auto corpus = make_corpus();
  ASSERT_EQ(corpus.size(), 7u);
  int dumps = 0, checkpoints = 0;
  for (const auto& file : corpus) {
    const fuzz::Outcome out = fuzz::run_one(file.data(), file.size());
    dumps += out.dump.empty() ? 1 : 0;
    checkpoints += out.checkpoint.empty() ? 1 : 0;
  }
  EXPECT_EQ(dumps, 4);
  EXPECT_EQ(checkpoints, 3);
  std::remove(fuzz::scratch_path().c_str());
}

TEST(FuzzContainer, SeededMutantsAreRejectedCleanlyOrDecode) {
  const auto corpus = make_corpus();
  Mutator mutator(corpus);
  std::map<std::string, int> rejections;  // by error kind
  int decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string what;
    const std::vector<std::uint8_t> m = mutator.next(what);
    try {
      const fuzz::Outcome out = fuzz::run_one(m.data(), m.size());
      for (const std::string* msg : {&out.dump, &out.checkpoint}) {
        if (msg->empty())
          ++decoded;
        else
          ++rejections[kind_of(*msg)];
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " (" << what
                    << ") escaped the readers with a non-PreconditionError: " << e.what();
    }
  }
  std::remove(fuzz::scratch_path().c_str());
  // The resealed mutants get past the checksums: the field checks and the
  // decoders reject some of them by their own messages.
  const auto seen = [&](const std::string& text) {
    for (const auto& [kind, n] : rejections)
      if (kind.find(text) != std::string::npos) return true;
    return false;
  };
  for (const char* check : {"header CRC mismatch", "CRC mismatch", "runs past the end",
                            "does not start where", "out of range", "zlib failure",
                            "decode_stream", "payload kind"})
    EXPECT_TRUE(seen(check)) << "no mutant reached: " << check;
  std::string table;
  for (const auto& [kind, n] : rejections) table += "  " + std::to_string(n) + "  " + kind + "\n";
  std::printf("%d mutants, %d decodes, rejections by kind:\n%s", kMutants, decoded,
              table.c_str());
}

}  // namespace
}  // namespace mpcf
