// The streamed save's memory bound: a checkpoint goes to the file chunk by
// chunk through the ordered window of the one save path (DESIGN.md §8), so
// saving a state raises the process's peak RSS by the window's encoded
// chunks, not by the file — at the node layer, and for an in-process
// cluster whose ranks' plans share the window. The save runs in a freshly
// forked child, whose peak starts at the state it holds; a save that
// encodes the whole file first would raise it by ~the file (an
// incompressible state's file is larger than the state).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "cluster/cluster_simulation.h"
#include "io/checkpoint.h"
#include "omp_threads.h"

namespace mpcf::io {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// 8x8x7 blocks of 16^3: 51.4 MB of cells, 50 chunks of ~1 MiB.
constexpr int kBx = 8, kBy = 8, kBz = 7, kBs = 16;
constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;

/// Xorshift noise from `seed`, one state byte at a time: deflate cannot
/// shrink it.
struct Noise {
  std::uint64_t x = kSeed;
  void fill(Block& b) {
    // mpcf-lint: allow(reinterpret-cast): the state written as the raw bytes a checkpoint stores
    auto* p = reinterpret_cast<std::uint8_t*>(b.data());
    for (std::size_t i = 0; i < b.cells() * sizeof(Cell); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      p[i] = static_cast<std::uint8_t>(x);
    }
  }
};

/// The noise state of the kBx x kBy x kBz grid, in its block order.
void fill_noise(Grid& g) {
  Noise noise;
  for (int b = 0; b < g.block_count(); ++b) noise.fill(g.block(b));
}

/// The same state spread over `cs`'s ranks: each global block, in global
/// order, filled where its rank holds it (no global grid is allocated).
void fill_noise(cluster::ClusterSimulation& cs) {
  const cluster::CartTopology& t = cs.topology();
  const int lx = kBx / t.rx, ly = kBy / t.ry, lz = kBz / t.rz;
  const BlockIndexer global(kBx, kBy, kBz);
  Noise noise;
  for (int id = 0; id < global.count(); ++id) {
    int x, y, z;
    global.coords(id, x, y, z);
    Grid& g = cs.rank_sim(t.rank(x / lx, y / ly, z / lz)).grid();
    noise.fill(g.block(g.indexer().linear(x % lx, y % ly, z % lz)));
  }
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// What the child measured around its save.
struct Report {
  long before_kib = 0, after_kib = 0;
  std::uint64_t bytes = 0;
  int ok = 0;
};

/// Runs `save` in a forked child after `build` made its state, and reports
/// the child's peak RSS before and after the save alone.
template <typename Build, typename Save>
Report measure_in_child(Build build, Save save) {
  Report r;
  int fds[2];
  if (::pipe(fds) != 0) return r;
  const pid_t pid = ::fork();
  if (pid < 0) return r;
  if (pid == 0) {
    Report mine;
    try {
      auto state = build();
      const test::Threads four(4);
      mine.before_kib = peak_rss_kib();
      mine.bytes = save(*state);
      mine.after_kib = peak_rss_kib();
      mine.ok = 1;
    } catch (...) {
      mine.ok = 0;
    }
    const bool sent = ::write(fds[1], &mine, sizeof(mine)) == static_cast<ssize_t>(sizeof(mine));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  const ssize_t got = ::read(fds[0], &r, sizeof(r));
  ::close(fds[0]);
  int status = 0;
  const bool exited = ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!exited || got != static_cast<ssize_t>(sizeof(r))) r.ok = 0;
  return r;
}

TEST(SaveMemory, SavingALargeIncompressibleStateRaisesPeakRssByTheWindowNotTheFile) {
  const std::string dir = ::testing::TempDir();
  const auto node = [] {
    auto g = std::make_unique<Grid>(kBx, kBy, kBz, kBs, 1e-3);
    fill_noise(*g);
    return g;
  };
  // 2x2x1 ranks of 4x4x7 blocks: 13 chunks each, so the window of 8 (four
  // workers) straddles ranks.
  const auto cluster = [] {
    Simulation::Params params;
    params.extent = 1e-3;
    auto cs = std::make_unique<cluster::ClusterSimulation>(
        kBx, kBy, kBz, kBs, cluster::CartTopology(2, 2, 1), params);
    fill_noise(*cs);
    return cs;
  };
  struct Input {
    const char* name;
    std::string path;
    CheckpointClock clock;  ///< what the file's record holds
    Report report;
  };
  Input inputs[] = {
      {"node", dir + "/mpcf_save_memory_node.ckp", {0.5, 7}, {}},
      {"in-process 2x2x1 cluster", dir + "/mpcf_save_memory_cluster.ckp", {0, 0}, {}}};
  inputs[0].report = measure_in_child(node, [&](const Grid& g) {
    return save_grid_checkpoint(inputs[0].path, g, 0.5, 7);
  });
  inputs[1].report = measure_in_child(cluster, [&](const cluster::ClusterSimulation& cs) {
    return cs.save_checkpoint(inputs[1].path);
  });

  // Made after the children, so it is in neither one's peak.
  Grid want(kBx, kBy, kBz, kBs, 1e-3);
  fill_noise(want);
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const Report& r = input.report;
    ASSERT_EQ(r.ok, 1) << "the child's save threw or died";
    const double state_mib = kBx * kBy * kBz * kBs * kBs * kBs * sizeof(Cell) / 1048576.0;
    const double rise_mib = static_cast<double>(r.after_kib - r.before_kib) / 1024.0;
    std::printf("%s: state %.1f MiB, file %.1f MiB, peak RSS %.1f -> %.1f MiB (+%.1f MiB)\n",
                input.name, state_mib, static_cast<double>(r.bytes) / 1048576.0,
                r.before_kib / 1024.0, r.after_kib / 1024.0, rise_mib);
    EXPECT_GE(state_mib, 48.0);
    EXPECT_GT(static_cast<double>(r.bytes) / 1048576.0, state_mib);
    // A sanitizer's shadow memory and quarantine grow with every allocation,
    // freed or not: there the save runs for its checks, not for the bound.
    if (!kSanitized) {
      EXPECT_LE(rise_mib, 16.0);
    }

    // The file holds the state.
    Grid back(kBx, kBy, kBz, kBs, 1e-3);
    const CheckpointClock clock = load_grid_checkpoint(input.path, back);
    EXPECT_EQ(clock.time, input.clock.time);
    EXPECT_EQ(clock.steps, input.clock.steps);
    for (int b = 0; b < want.block_count(); ++b)
      ASSERT_EQ(std::memcmp(want.block(b).data(), back.block(b).data(),
                            want.block(b).cells() * sizeof(Cell)),
                0)
          << "block " << b;
    std::remove(input.path.c_str());
  }
}

}  // namespace
}  // namespace mpcf::io
