// The four workloads, and the machinery two of them share with the
// per-layer probes (rank-worker launches under mpcf-run, mpcf-serve queue
// drains). Each workload takes its inputs from a config template plus the
// seed, measures, checks its outputs, and fills a Result.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common.h"
#include "host.h"

namespace mpcf::bench_suite {

/// Fresh (emptied) directory `<opt.out>/<name>`.
[[nodiscard]] std::string fresh_dir(const Options& opt, const std::string& name);
[[nodiscard]] std::string template_path(const Options& opt, const std::string& name);

/// cloud_job's grid and job cadence (the job/io probe reuses them).
struct CloudJobSize {
  std::string blocks;
  int bs = 8;
  int steps = 120;
  int diag = 20, dump = 20, ckpt = 40;
  int setups = 5;
};
[[nodiscard]] CloudJobSize cloud_job_size(const Options& opt);
/// Renders cloud_job.cfg for `sz` into `dir`; returns its path.
std::string write_cloud_job_config(const Options& opt, const std::string& dir,
                                   const CloudJobSize& sz);

Result step_large(const Options& opt, const Host& host);
Result cloud_job(const Options& opt, const Host& host);
Result cluster_weak(const Options& opt, const Host& host);
Result serve_queue(const Options& opt, const Host& host);

/// Dump files decode: reads every `.cq` under `dir` (recursively), decodes
/// it, checks the decoded field is finite, and accumulates raw and encoded
/// bytes. Returns the number of files that failed.
struct DumpTally {
  int files = 0;
  int failed = 0;
  double raw_bytes = 0;
  double encoded_bytes = 0;
  [[nodiscard]] double ratio() const { return encoded_bytes > 0 ? raw_bytes / encoded_bytes : 0; }
};
[[nodiscard]] DumpTally decode_dumps(const std::string& dir);

// --- cluster: the rank worker and its launcher ---------------------------

/// What one rank reports after a cluster run.
struct RankReport {
  int rank = -1;
  double ready_us = 0;        ///< steady clock when the initial state was in place
  double warm_s = 0;          ///< first (graph-building) step
  std::vector<double> step_s; ///< timed steps
  double loop_s = 0;
  double messages = 0, bytes = 0, recv_s = 0, comm_work_s = 0;
  double exchange_s = 0;      ///< one timed exchange_halos()
  double reduce_s = 0;        ///< one timed compute_dt()
  bool finite = false;
  double max_p = 0, kinetic = 0;
  std::string hash;
};

/// Runs the cluster body described by the config over the transport the
/// environment selects (shm under mpcf-run, in-memory otherwise) and returns
/// one report per local rank. Dumps land at `<prefix>_p.cq` / `_G.cq`; a
/// non-empty `checkpoint` saves the final distributed state there.
std::vector<RankReport> cluster_body(const std::string& cfg_path, const std::string& prefix,
                                     const std::string& checkpoint);

/// `bench_suite --rank-worker CFG --report PREFIX [--checkpoint F] [--trace]`.
int rank_worker_main(int argc, char** argv);

struct ClusterLaunch {
  int exit_code = -1;
  double setup_s = 0;  ///< launch until every rank holds its initial state
  std::vector<RankReport> ranks;
  std::string prefix;
};

struct ClusterShape {
  std::array<int, 3> topo{1, 1, 1};
  std::string blocks;  ///< per-rank blocks, "x y z"
  int bs = 16;
  long steps = 0;      ///< 0 = set up only
  bool dump = false;
};

/// Writes the config for `shape`, launches `mpcf-run -n N bench_suite
/// --rank-worker`, waits, and collects the rank reports (and, traced, the
/// rank spans under pid `pid_base + rank`).
ClusterLaunch launch_cluster(const Options& opt, const std::string& dir, const std::string& tag,
                             const ClusterShape& shape, const std::string& checkpoint,
                             int pid_base);

/// Writes the config for `shape` without launching (the in-process oracle
/// runs cluster_body on it).
std::string write_cluster_config(const Options& opt, const std::string& dir,
                                 const std::string& tag, const ClusterShape& shape);

// --- serve: one mpcf-serve queue drain -----------------------------------

struct ServeShape {
  int jobs = 12;
  std::string blocks;
  int bs = 16;
  int steps = 48;
  int every = 16;     ///< diag, dump and checkpoint cadence
  int fault_at = 32;  ///< job 05 exits after this step on its first attempt
  int workers = 2;
  int threads = 2;    ///< OMP_NUM_THREADS per worker
};

struct Attempt {
  std::string job;
  int attempt = 0;
  double running_us = 0;  ///< status "running" seen
  double start_us = 0;    ///< progress "start" seen (scenario built)
  double done_us = 0;     ///< progress "done" seen (0 = none)
  double fault_us = 0;    ///< progress "fault_exit" seen (the injected crash)
  double end_us = 0;      ///< status "done"/"crashed" seen
  std::string outcome;
};

struct ServeRun {
  int exit_code = -1;
  double makespan_s = 0;
  std::vector<std::string> status;  ///< status.jsonl rows
  std::vector<Attempt> attempts;
  std::string queue, out;
  double cells_per_job = 0;
};

ServeRun run_serve(const Options& opt, const std::string& dir, const ServeShape& shape);

/// Serve-layer numbers of one drain (shared by serve_queue and the probe).
struct ServeNumbers {
  int done = 0, failed = 0, retries = 0, crashes = 0, attempts = 0;
  double overhead_frac = 0, recovery_s = 0, job_wall_p50_s = 0;
  std::vector<double> setup_s, step_s, job_wall_s;
};
[[nodiscard]] ServeNumbers serve_numbers(const ServeRun& run, const ServeShape& shape);

/// Serve correctness gates (12-done/1-retry, twin checkpoint bytes, every
/// job reloads healthy, dumps decode); returns failed operations.
long serve_gates(const Options& opt, const ServeRun& run, const ServeShape& shape,
                 const ServeNumbers& n, Result& r, DumpTally* dumps);

}  // namespace mpcf::bench_suite
