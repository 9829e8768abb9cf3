// The streamed save's memory bound: a checkpoint goes to the file chunk by
// chunk through the ordered window (DESIGN.md §8), so saving a state raises
// the process's peak RSS by the window's encoded chunks, not by the file.
// The save runs in a freshly forked child, whose peak starts at the state it
// holds; a save that encodes the whole file first would raise it by ~the
// file (an incompressible state's file is larger than the state).
#include <gtest/gtest.h>
#include <omp.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "io/checkpoint.h"

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

/// Overwrites every state byte of `g` with xorshift noise from `seed`:
/// deflate cannot shrink it.
void fill_noise(Grid& g, std::uint64_t seed) {
  std::uint64_t x = seed;
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

constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;

TEST(SaveMemory, SavingALargeIncompressibleStateRaisesPeakRssByTheWindowNotTheFile) {
  // 8x8x7 blocks of 16^3: 51.4 MB of cells, 50 chunks of ~1 MiB.
  const int bx = 8, by = 8, bz = 7, bs = 16;
  const std::string path = ::testing::TempDir() + "/mpcf_save_memory.ckp";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Report r;
    try {
      Grid g(bx, by, bz, bs, 1e-3);
      fill_noise(g, kSeed);
      omp_set_num_threads(4);
      r.before_kib = peak_rss_kib();
      r.bytes = save_grid_checkpoint(path, g, 0.5, 7);
      r.after_kib = peak_rss_kib();
      r.ok = 1;
    } catch (...) {
      r.ok = 0;
    }
    const bool sent = ::write(fds[1], &r, sizeof(r)) == static_cast<ssize_t>(sizeof(r));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  Report r;
  const ssize_t got = ::read(fds[0], &r, sizeof(r));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(r)));
  ASSERT_EQ(r.ok, 1) << "the child's save threw";

  const double state_mib = bx * by * bz * bs * bs * bs * sizeof(Cell) / 1048576.0;
  const double rise_mib = static_cast<double>(r.after_kib - r.before_kib) / 1024.0;
  std::printf("state %.1f MiB, file %.1f MiB, peak RSS %.1f -> %.1f MiB (+%.1f MiB)\n", state_mib,
              static_cast<double>(r.bytes) / 1048576.0, r.before_kib / 1024.0,
              r.after_kib / 1024.0, rise_mib);
  EXPECT_GE(state_mib, 48.0);
  EXPECT_GT(static_cast<double>(r.bytes) / 1048576.0, state_mib);
  // A sanitizer's shadow memory and quarantine grow with every allocation,
  // freed or not: there the save runs for its checks, not for the bound.
  if (!kSanitized) {
    EXPECT_LE(rise_mib, 16.0);
  }

  // The file holds the state.
  Grid want(bx, by, bz, bs, 1e-3);
  fill_noise(want, kSeed);
  Grid back(bx, by, bz, bs, 1e-3);
  const CheckpointClock clock = load_grid_checkpoint(path, back);
  EXPECT_EQ(clock.time, 0.5);
  EXPECT_EQ(clock.steps, 7);
  for (int b = 0; b < want.block_count(); ++b)
    ASSERT_EQ(std::memcmp(want.block(b).data(), back.block(b).data(),
                          want.block(b).cells() * sizeof(Cell)),
              0)
        << "block " << b;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::io
