// True multi-process transport tests: spawn tools/mpcf-run (one process per
// rank over the shm transport) against tests/mpcf_rank_worker and verify the
// two acceptance properties of the multi-process port:
//
//   1. `mpcf-run -n 4 worker` writes a checkpoint bitwise identical to the
//      same worker run single-process (all ranks in-memory) — the transport
//      swap changes the execution substrate, not one bit of physics. This
//      holds for the fused step graph and the staged oracle, and with two
//      OpenMP threads per rank process.
//   2. A rank dying mid-run surfaces as a diagnosed nonzero exit on every
//      peer, never a hang (the launcher aborts the segment; peers convert it
//      into TransportError within a poll slice).
//
// Binary locations come from the build system (MPCF_RUN_PATH /
// MPCF_WORKER_PATH compile definitions).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "io/safe_file.h"

namespace mpcf {
namespace {

/// Runs `cmd` with `threads` OpenMP threads per process (default one: the
/// checkpoint bytes must not depend on it, but one thread per process keeps
/// the rank processes from oversubscribing the host).
int run_cmd(const std::string& cmd, int threads = 1) {
  const std::string full = "OMP_NUM_THREADS=" + std::to_string(threads) + " " + cmd;
  const int status = std::system(full.c_str());
  if (status < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string worker_args(const std::string& out, int steps, bool staged,
                        const std::string& blocks = "2,2,2") {
  return std::string(MPCF_WORKER_PATH) + " --topo 1,2,2 --blocks " + blocks +
         " --bs 8 --steps " + std::to_string(steps) + (staged ? " --staged" : "") +
         " --out " + out;
}

/// Runs the worker in-process (every rank over the in-memory transport) and
/// under `mpcf-run -n 4` with `threads` OpenMP threads per rank process, and
/// expects bitwise-identical checkpoints.
void expect_mp_matches_in_process(const std::string& name, bool staged, int threads,
                                  const std::string& blocks = "2,2,2") {
  const std::string dir = ::testing::TempDir();
  const std::string ref = dir + "/" + name + "_ref.ckpt";
  const std::string mp = dir + "/" + name + "_shm.ckpt";

  ASSERT_EQ(run_cmd(worker_args(ref, 2, staged, blocks)), 0)
      << "in-process reference failed";
  ASSERT_EQ(run_cmd(std::string(MPCF_RUN_PATH) + " -n 4 " +
                        worker_args(mp, 2, staged, blocks),
                    threads),
            0)
      << "mpcf-run failed";

  const auto a = io::read_file(ref);
  const auto b = io::read_file(mp);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "shm transport changed the physics: checkpoints differ";
  std::remove(ref.c_str());
  std::remove(mp.c_str());
}

TEST(MultiProcess, FourRanksBitwiseIdenticalToInProcess) {
  expect_mp_matches_in_process("mp", /*staged=*/false, 1);
}

TEST(MultiProcess, SequentialScheduleAlsoBitwiseIdentical) {
  // The staged oracle (a sequential halo exchange per RK stage) must agree
  // too: it exercises the blocking-recv path instead of the try_recv drain.
  expect_mp_matches_in_process("mp_seq", /*staged=*/true, 1);
}

TEST(MultiProcess, TwoThreadsPerRankBitwiseIdenticalToInProcess) {
  // Two threads per rank process let one thread run a stage ahead while the
  // other blocks in a drain, so halo packs of stage s+1 cross the process
  // boundary before the neighbour has received stage s. 2x2x2 blocks per
  // rank leave interior blocks to compute while halos are in flight.
  expect_mp_matches_in_process("mp_t2", /*staged=*/false, 2, "2,4,4");
}

TEST(MultiProcess, DeadRankIsAnErrorNotAHang) {
  // Rank 1 _exit(3)s after the first step. The launcher must flag the
  // segment, the surviving ranks must fail with TransportError, and the
  // whole run must come back nonzero well before the 3 s receive timeout
  // would even matter — bounded here at the test level by wall clock.
  const std::string dir = ::testing::TempDir();
  const auto t0 = std::chrono::steady_clock::now();
  const int rc =
      run_cmd(std::string(MPCF_RUN_PATH) + " -n 2 --timeout-ms 3000 " +
              std::string(MPCF_WORKER_PATH) +
              " --topo 1,1,2 --blocks 1,1,2 --bs 8 --steps 50 --die 1 --out " + dir +
              "/mp_dead.ckpt 2>/dev/null");
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(rc, 0) << "a dead rank must fail the launch";
  EXPECT_LT(waited, 60.0) << "dead rank hung the run";
  std::remove((dir + "/mp_dead.ckpt").c_str());
}

}  // namespace
}  // namespace mpcf
