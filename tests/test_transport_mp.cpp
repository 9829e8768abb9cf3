// True multi-process transport tests: spawn tools/mpcf-run (one process per
// rank over the shm transport) against tests/mpcf_rank_worker and verify the
// acceptance properties of the multi-process port:
//
//   1. `mpcf-run -n 4 worker` writes a checkpoint bitwise identical to the
//      same worker run single-process (all ranks in-memory) — the transport
//      swap changes the execution substrate, not one bit of physics. This
//      holds for the fused step graph and the staged oracle, and with two
//      OpenMP threads per rank process.
//   2. A checkpoint written by 4 rank processes restores to the same state
//      under another topology of 4 processes and in one process at one rank,
//      whose file is the node layer's file of that state.
//   3. A rank dying mid-run, or a checkpoint one rank finds corrupt,
//      surfaces as a diagnosed nonzero exit on every peer, never a hang and
//      never a wait for the receive timeout.
//
// Binary locations come from the build system (MPCF_RUN_PATH /
// MPCF_WORKER_PATH compile definitions).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "io/checkpoint.h"
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

/// The worker at `topo` over the 2x2x2 blocks of 8^3 of the other cases.
std::string worker(const std::string& topo, const std::string& args) {
  return std::string(MPCF_WORKER_PATH) + " --topo " + topo + " --blocks 2,2,2 --bs 8 " + args;
}

std::string launch4(const std::string& topo, const std::string& args) {
  return std::string(MPCF_RUN_PATH) + " -n 4 " + worker(topo, args);
}

/// A checkpoint loaded at the node layer: its grid and clock.
struct NodeState {
  Grid grid{2, 2, 2, 8, 1e-3};
  io::CheckpointClock clock;
};

NodeState load_node(const std::string& path) {
  NodeState s;
  s.clock = io::load_grid_checkpoint(path, s.grid);
  return s;
}

void expect_same_state(const NodeState& a, const NodeState& b) {
  EXPECT_EQ(a.clock.time, b.clock.time);
  EXPECT_EQ(a.clock.steps, b.clock.steps);
  for (int blk = 0; blk < a.grid.block_count(); ++blk)
    ASSERT_EQ(std::memcmp(a.grid.block(blk).data(), b.grid.block(blk).data(),
                          a.grid.block(blk).cells() * sizeof(Cell)),
              0)
        << "block " << blk;
}

TEST(MultiProcess, CheckpointRestoresAcrossTopologiesAndProcessCounts) {
  const std::string dir = ::testing::TempDir();
  const std::string a = dir + "/mp_topo_221.ckpt";
  const std::string b = dir + "/mp_topo_122.ckpt";
  const std::string c = dir + "/mp_topo_111.ckpt";
  const std::string node = dir + "/mp_topo_node.ckpt";
  ASSERT_EQ(run_cmd(launch4("2,2,1", "--steps 2 --out " + a)), 0);
  ASSERT_EQ(run_cmd(launch4("1,2,2", "--load " + a + " --steps 0 --out " + b)), 0);
  ASSERT_EQ(run_cmd(worker("1,1,1", "--load " + a + " --steps 0 --out " + c)), 0);
  const NodeState sa = load_node(a);
  EXPECT_EQ(sa.clock.steps, 2);
  expect_same_state(load_node(b), sa);
  expect_same_state(load_node(c), sa);
  // The one-rank file is the node layer's file of the same state.
  (void)io::save_grid_checkpoint(node, sa.grid, sa.clock.time, sa.clock.steps);
  EXPECT_EQ(io::read_file(c), io::read_file(node));
  for (const std::string& f : {a, b, c, node}) std::remove(f.c_str());
}

TEST(MultiProcess, CorruptCheckpointFailsEveryRankWithinTheTimeout) {
  // One byte of rank 3's blob is broken: only rank 3 reads that blob, and
  // every rank must still refuse the file, by the agreement after the check
  // pass, long before a 60 s receive timeout would end a waiting peer.
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/mp_corrupt_src.ckpt";
  const std::string bad = dir + "/mp_corrupt.ckpt";
  const std::string err = dir + "/mp_corrupt.err";
  const std::string out = dir + "/mp_corrupt_out.ckpt";
  ASSERT_EQ(run_cmd(launch4("2,2,1", "--steps 1 --out " + good)), 0);
  auto bytes = io::read_file(good);
  bytes[bytes.size() - 10] ^= 0x20;
  {
    io::SafeFile f(bad);
    f.write(bytes.data(), bytes.size());
    f.commit();
  }
  std::remove(out.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = run_cmd(std::string(MPCF_RUN_PATH) + " -n 4 --timeout-ms 60000 " +
                         worker("2,2,1", "--load " + bad + " --steps 1 --out " + out) +
                         " 2>" + err);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(rc, 0);
  EXPECT_LT(waited, 20.0) << "a rank waited for the receive timeout";
  const auto log_bytes = io::read_file(err);
  const std::string log(log_bytes.begin(), log_bytes.end());
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(log.find("(rank " + std::to_string(r) + "): load_checkpoint"), std::string::npos)
        << "rank " << r << " did not refuse the file:\n" << log;
  EXPECT_NE(log.find("blob 3 CRC mismatch"), std::string::npos) << log;
  EXPECT_EQ(log.find("transport error"), std::string::npos) << log;
  EXPECT_FALSE(std::filesystem::exists(out)) << "a rank went on to save";
  for (const std::string& f : {good, bad, err}) std::remove(f.c_str());
}

TEST(MultiProcess, FailedSaveFailsEveryRankWithinTheTimeout) {
  // The root's second write call fails (ENOSPC): every rank must fail the
  // save, by the agreement after the write, and no file may appear.
  const std::string dir = ::testing::TempDir();
  const std::string err = dir + "/mp_enospc.err";
  const std::string out = dir + "/mp_enospc.ckpt";
  std::remove(out.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = run_cmd("MPCF_IO_FAULT=enospc:1 " + std::string(MPCF_RUN_PATH) +
                         " -n 4 --timeout-ms 60000 " +
                         worker("2,2,1", "--steps 1 --out " + out) + " 2>" + err);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(rc, 0);
  EXPECT_LT(waited, 20.0) << "a rank waited for the receive timeout";
  const auto log_bytes = io::read_file(err);
  const std::string log(log_bytes.begin(), log_bytes.end());
  EXPECT_NE(log.find("(rank 0): SafeFile: write failed"), std::string::npos) << log;
  for (int r = 1; r < 4; ++r)
    EXPECT_NE(log.find("(rank " + std::to_string(r) + "): save_checkpoint: failed on another"),
              std::string::npos)
        << log;
  EXPECT_FALSE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));
  std::remove(err.c_str());
}

TEST(MultiProcess, EveryRankFailingASaveReportsEveryReason) {
  // The root cannot open the file, and the others learn of it through the
  // agreement: every rank prints its reason and exits 1. The launcher flags
  // the segment at the first exit, then lets the rest leave by themselves,
  // so all four reasons appear and no rank is reported killed.
  const std::string dir = ::testing::TempDir();
  const std::string err = dir + "/mp_allfail.err";
  const std::string out = dir + "/mp_no_such_dir/mp_allfail.ckpt";
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = run_cmd(std::string(MPCF_RUN_PATH) + " -n 4 --timeout-ms 60000 " +
                         worker("2,2,1", "--steps 1 --out " + out) + " 2>" + err);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(rc, 0);
  EXPECT_LT(waited, 20.0) << "a rank waited for the receive timeout";
  const auto log_bytes = io::read_file(err);
  const std::string log(log_bytes.begin(), log_bytes.end());
  EXPECT_NE(log.find("(rank 0): SafeFile: cannot open"), std::string::npos) << log;
  for (int r = 1; r < 4; ++r)
    EXPECT_NE(log.find("(rank " + std::to_string(r) + "): save_checkpoint: failed on another"),
              std::string::npos)
        << log;
  for (int r = 0; r < 4; ++r)
    EXPECT_NE(log.find("rank " + std::to_string(r) + " exited with status 1"), std::string::npos)
        << log;
  EXPECT_EQ(log.find("killed by signal"), std::string::npos) << log;
  std::remove(err.c_str());
}

TEST(MultiProcess, APeerThatNeverCallsTheTransportIsEndedAfterTheGrace) {
  // Rank 1 fails at once; rank 0 sleeps and never calls the transport, so
  // no abort flag can reach it: the launcher ends it with SIGTERM once its
  // grace is over, long before the sleep would.
  const std::string err = ::testing::TempDir() + "/mp_sleeper.err";
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = run_cmd(std::string(MPCF_RUN_PATH) +
                         " -n 2 -- sh -c 'test \"$MPCF_RANK\" = 0 && exec sleep 60; exit 3' 2>" +
                         err);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(rc, 0);
  EXPECT_LT(waited, 20.0) << "the launcher left a peer running";
  const auto log_bytes = io::read_file(err);
  const std::string log(log_bytes.begin(), log_bytes.end());
  EXPECT_NE(log.find("rank 1 exited with status 3"), std::string::npos) << log;
  EXPECT_NE(log.find("rank 0 killed by signal 15"), std::string::npos) << log;
  std::remove(err.c_str());
}

}  // namespace
}  // namespace mpcf
