// mpcf-run: the process launcher of the shared-memory transport. Creates
// the shm segment, forks one process per rank with the transport environment
// (MPCF_TRANSPORT=shm, MPCF_SHM_NAME, MPCF_RANK, MPCF_NRANKS) exported, and
// reaps them. If any rank exits nonzero or dies on a signal, the segment is
// flagged aborted at once — every peer blocked in the transport converts that
// flag into a TransportError within one poll slice — and the ranks get a
// fixed grace to exit by themselves, so ranks that agreed on a failure finish
// printing their reasons. Ranks still alive after it (a peer that never
// calls the transport again) get SIGTERM, so a dead rank surfaces as a
// diagnosed error, never a hang. Every child is reaped before the launcher
// exits.
//
//   mpcf-run -n N [--ring-bytes B] [--timeout-ms T] [--] prog [args...]
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/transport_shm.h"

namespace {

/// How long the ranks get to exit by themselves once one has failed. Ranks
/// that agreed on a failure leave within milliseconds, and a peer blocked in
/// the transport within one 20 ms poll slice.
constexpr std::chrono::seconds kGrace{2};

volatile sig_atomic_t g_interrupted = 0;
void on_signal(int) { g_interrupted = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: mpcf-run -n N [--ring-bytes BYTES] [--timeout-ms MS] [--] "
               "prog [args...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 0;
  std::size_t ring_bytes = std::size_t{1} << 20;
  long timeout_ms = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-n" && i + 1 < argc) {
      nranks = std::atoi(argv[++i]);
    } else if (arg == "--ring-bytes" && i + 1 < argc) {
      ring_bytes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::atol(argv[++i]);
    } else if (arg == "--") {
      ++i;
      break;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      break;  // first non-option: the program
    }
  }
  if (nranks <= 0 || i >= argc) return usage();
  char** child_argv = argv + i;

  const std::string seg = "/mpcf-" + std::to_string(::getpid());
  try {
    mpcf::cluster::ShmTransport::create_segment({seg, nranks, ring_bytes});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcf-run: %s\n", e.what());
    return 1;
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  std::vector<pid_t> pids(nranks, -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::setenv("MPCF_TRANSPORT", "shm", 1);
      ::setenv("MPCF_SHM_NAME", seg.c_str(), 1);
      ::setenv("MPCF_RANK", std::to_string(r).c_str(), 1);
      ::setenv("MPCF_NRANKS", std::to_string(nranks).c_str(), 1);
      if (timeout_ms > 0)
        ::setenv("MPCF_RECV_TIMEOUT_MS", std::to_string(timeout_ms).c_str(), 1);
      ::execvp(child_argv[0], child_argv);
      std::fprintf(stderr, "mpcf-run: exec '%s' failed: %s\n", child_argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    if (pid < 0) {
      std::fprintf(stderr, "mpcf-run: fork failed: %s\n", std::strerror(errno));
      mpcf::cluster::ShmTransport::mark_aborted(seg);
      for (int k = 0; k < r; ++k) ::kill(pids[k], SIGTERM);
      for (int k = 0; k < r; ++k) ::waitpid(pids[k], nullptr, 0);
      mpcf::cluster::ShmTransport::unlink_segment(seg);
      return 1;
    }
    pids[r] = pid;
  }

  int failures = 0;
  bool aborted = false;      // the segment is flagged; the grace runs
  bool terminated = false;   // the grace is over; the survivors got SIGTERM
  std::chrono::steady_clock::time_point deadline;
  const auto abort_peers = [&] {
    if (aborted) return;
    aborted = true;
    mpcf::cluster::ShmTransport::mark_aborted(seg);
    deadline = std::chrono::steady_clock::now() + kGrace;
  };

  int live = nranks;
  while (live > 0) {
    int status = 0;
    // During the grace, poll, so the deadline is kept; otherwise block.
    const pid_t pid = ::waitpid(-1, &status, aborted && !terminated ? WNOHANG : 0);
    if (pid == 0) {
      if (std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      terminated = true;
      for (const pid_t p : pids)
        if (p > 0) ::kill(p, SIGTERM);
      continue;
    }
    if (pid < 0) {
      if (errno == EINTR) {
        if (g_interrupted) abort_peers();
        continue;
      }
      break;
    }
    int rank = -1;
    for (int r = 0; r < nranks; ++r)
      if (pids[r] == pid) rank = r;
    if (rank < 0) continue;  // not ours (shouldn't happen)
    --live;
    pids[rank] = -1;
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "mpcf-run: rank %d killed by signal %d (%s)\n", rank,
                   WTERMSIG(status), strsignal(WTERMSIG(status)));
      ++failures;
      abort_peers();
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "mpcf-run: rank %d exited with status %d\n", rank,
                   WEXITSTATUS(status));
      ++failures;
      abort_peers();
    }
  }

  mpcf::cluster::ShmTransport::unlink_segment(seg);
  if (g_interrupted) return 130;
  return failures == 0 ? 0 : 1;
}
