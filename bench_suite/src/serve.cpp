// serve_queue: mpcf-serve drains a seeded queue of short cloud_collapse jobs
// through two mpcf-sim workers. Job 05 dies once after a checkpoint
// ([fault] exit_at_step) and must resume from it; job 06 is its undisturbed
// twin. The suite watches status.jsonl and the jobs' progress.jsonl from
// outside and timestamps every transition it sees.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <set>

#include "common/config_file.h"
#include "io/jsonl.h"
#include "io/retention.h"
#include "scenario/scenario.h"
#include "spans.h"
#include "workloads.h"

namespace mpcf::bench_suite {
namespace {

std::string job_name(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "job%02d", i);
  return buf;
}

constexpr int kFaultJob = 5;
constexpr int kTwinJob = 6;

ServeShape serve_size(const Options& opt) {
  ServeShape s;
  if (opt.smoke) {
    s.blocks = "2 2 2";
    s.bs = 8;
    s.steps = 12;
    s.every = 4;
    s.fault_at = 8;
  } else {
    s.blocks = "4 4 4";
    s.bs = 16;
    s.steps = 48;
    s.every = 16;
    s.fault_at = 32;
  }
  return s;
}

}  // namespace

ServeRun run_serve(const Options& opt, const std::string& dir, const ServeShape& shape) {
  ServeRun run;
  run.queue = dir + "/queue";
  run.out = dir + "/out";
  std::filesystem::create_directories(run.queue);
  run.cells_per_job = grid_cells(shape.blocks, shape.bs);
  for (int i = 0; i < shape.jobs; ++i) {
    const int cloud = i == kTwinJob ? kFaultJob : i;
    write_file(run.queue + "/" + job_name(i) + ".cfg",
               render_template(
                   template_path(opt, "serve_job.cfg"),
                   {{"STEPS", std::to_string(shape.steps)},
                    {"EVERY", std::to_string(shape.every)},
                    {"BLOCKS", shape.blocks},
                    {"BS", std::to_string(shape.bs)},
                    {"SEED", std::to_string(opt.seed * 100 + static_cast<std::uint64_t>(cloud))},
                    {"FAULT", i == kFaultJob
                                  ? "\n[fault]\nexit_at_step = " + std::to_string(shape.fault_at)
                                  : ""}}));
  }

  // Observed transitions: status rows in order, plus per-job progress
  // start/done rows counted per attempt.
  const std::string status_path = run.out + "/status.jsonl";
  std::size_t seen = 0;
  struct ProgressSeen {
    std::size_t starts = 0, dones = 0, faults = 0;
  };
  std::map<std::string, ProgressSeen> progress_seen;
  std::set<std::string> watch;
  const auto find_attempt = [&](const std::string& job, int attempt) -> Attempt* {
    for (Attempt& a : run.attempts)
      if (a.job == job && a.attempt == attempt) return &a;
    return nullptr;
  };
  const auto poll = [&] {
    const double t = now_us();
    const std::vector<std::string> rows = io::read_jsonl(status_path);
    for (; seen < rows.size(); ++seen) {
      const std::string& row = rows[seen];
      run.status.push_back(row);
      const auto job = io::json_find_string(row, "job");
      const auto state = io::json_find_string(row, "state");
      const auto attempt = io::json_find_number(row, "attempt");
      if (!job || !state || !attempt) continue;
      const int a = static_cast<int>(*attempt);
      if (*state == "running") {
        Attempt at;
        at.job = *job;
        at.attempt = a;
        at.running_us = t;
        run.attempts.push_back(at);
        watch.insert(*job);
      } else if (*state == "done" || *state == "crashed") {
        if (Attempt* at = find_attempt(*job, a)) {
          at->end_us = t;
          at->outcome = *state;
        }
      }
    }
    for (auto it = watch.begin(); it != watch.end();) {
      const std::string& job = *it;
      const std::vector<std::string> prog = io::read_jsonl(run.out + "/" + job + "/progress.jsonl");
      std::size_t starts = 0, dones = 0, faults = 0;
      for (const std::string& row : prog) {
        const auto ev = io::json_find_string(row, "event");
        if (ev && *ev == "start") ++starts;
        if (ev && *ev == "done") ++dones;
        if (ev && *ev == "fault_exit") ++faults;
      }
      ProgressSeen& ps = progress_seen[job];
      for (; ps.starts < starts; ++ps.starts)
        if (Attempt* at = find_attempt(job, static_cast<int>(ps.starts))) at->start_us = t;
      for (; ps.dones < dones; ++ps.dones)
        if (Attempt* at = find_attempt(job, static_cast<int>(ps.dones))) at->done_us = t;
      for (; ps.faults < faults; ++ps.faults)
        if (Attempt* at = find_attempt(job, static_cast<int>(ps.faults))) at->fault_us = t;
      // Stop watching a job once its latest attempt has ended.
      bool open = false;
      for (const Attempt& at : run.attempts)
        if (at.job == job && at.end_us == 0) open = true;
      it = open ? std::next(it) : watch.erase(it);
    }
  };

  const double t0 = now_us();
  {
    const Span drain(Layer::kServe, "mpcf-serve drain");
    run.exit_code = run_child({MPCF_SERVE_PATH, "--queue", run.queue, "--out", run.out, "--sim",
                               MPCF_SIM_PATH, "--workers", std::to_string(shape.workers)},
                              {{"OMP_NUM_THREADS", std::to_string(shape.threads)}},
                              dir + "/serve.log", 170, poll, 5);
    run.makespan_s = (now_us() - t0) * 1e-6;
    if (tracing()) {
      // The attempts as the status stream showed them, on one track per
      // worker slot, under the drain span.
      std::vector<double> slot_free(static_cast<std::size_t>(shape.workers), 0.0);
      long id = 1L << 40;
      for (const Attempt& a : run.attempts) {
        const double end = a.end_us > 0 ? a.end_us : now_us();
        std::size_t slot = 0;
        while (slot + 1 < slot_free.size() && slot_free[slot] > a.running_us) ++slot;
        slot_free[slot] = end;
        SpanEvent e;
        e.layer = Layer::kServe;
        e.name = "attempt " + a.job + "#" + std::to_string(a.attempt);
        e.tid = 1000 + static_cast<int>(slot);
        e.id = ++id;
        e.parent = drain.id();
        e.t0_us = a.running_us;
        e.dur_us = end - a.running_us;
        const long attempt_id = e.id;
        add_span(e);
        if (a.start_us > 0) {
          e.layer = Layer::kScenario;
          e.name = "worker set-up " + a.job;
          e.id = ++id;
          e.parent = attempt_id;
          e.dur_us = a.start_us - a.running_us;
          add_span(e);
        }
      }
    }
  }
  return run;
}

ServeNumbers serve_numbers(const ServeRun& run, const ServeShape& shape) {
  ServeNumbers n;
  for (const std::string& row : run.status) {
    const auto state = io::json_find_string(row, "state");
    if (!state) continue;
    if (*state == "done") ++n.done;
    if (*state == "failed") ++n.failed;
    if (*state == "retrying") ++n.retries;
    if (*state == "crashed") ++n.crashes;
  }
  n.attempts = static_cast<int>(run.attempts.size());
  double busy = 0;
  for (const Attempt& a : run.attempts) {
    if (a.end_us <= 0) continue;
    busy += (a.end_us - a.running_us) * 1e-6;
    const bool fault = a.job == job_name(kFaultJob);
    if (a.attempt == 0 && a.start_us > a.running_us)
      n.setup_s.push_back((a.start_us - a.running_us) * 1e-6);
    if (a.attempt == 0 && !fault && a.done_us > a.start_us && a.start_us > 0) {
      n.step_s.push_back((a.done_us - a.start_us) * 1e-6 / shape.steps);
      n.job_wall_s.push_back((a.end_us - a.running_us) * 1e-6);
    }
  }
  if (run.makespan_s > 0)
    n.overhead_frac = 1.0 - busy / (shape.workers * run.makespan_s);
  // Crash to resumed: from the dying worker's last row to the resumed
  // worker's start row (reap, respawn, scenario build, checkpoint read).
  double crashed = 0, resumed = 0;
  for (const Attempt& a : run.attempts) {
    if (a.job != job_name(kFaultJob)) continue;
    if (a.attempt == 0) crashed = a.fault_us;
    if (a.attempt == 1) resumed = a.start_us;
  }
  n.recovery_s = crashed > 0 && resumed > crashed ? (resumed - crashed) * 1e-6 : 0;
  n.job_wall_p50_s = median(n.job_wall_s);
  return n;
}

long serve_gates(const Options& opt, const ServeRun& run, const ServeShape& shape,
                 const ServeNumbers& n, Result& r, DumpTally* dumps) {
  long failed = 0;
  r.gate("mpcf-serve exits 0", run.exit_code == 0, "exit " + std::to_string(run.exit_code));
  const bool all_done = n.done == shape.jobs && n.failed == 0;
  failed += shape.jobs - n.done;
  r.gate("every job done", all_done,
         std::to_string(n.done) + " done, " + std::to_string(n.failed) + " failed");
  // Only the injected crash may happen, and it must cost exactly one retry.
  failed += std::max(0, n.crashes - 1);
  r.gate("exactly one retry (the injected crash)", n.retries == 1 && n.crashes == 1,
         std::to_string(n.retries) + " retries, " + std::to_string(n.crashes) + " crashes");

  // Every job's newest checkpoint reloads into a fresh instance and is
  // healthy; the resumed job ends in the same bytes as its twin.
  std::string hashes;
  std::vector<std::string> last_ckp(static_cast<std::size_t>(shape.jobs));
  int unhealthy = 0;
  for (int i = 0; i < shape.jobs; ++i) {
    const std::string job = job_name(i);
    try {
      const Span span(Layer::kIo, "load_latest_valid");
      scenario::ScenarioInstance inst =
          scenario::make_scenario(Config::parse_file(run.queue + "/" + job + ".cfg"));
      const io::CheckpointRotator rot(run.out + "/" + job + "/checkpoints", "ckp", 3);
      const std::vector<std::string> files = rot.list();
      if (!files.empty()) last_ckp[static_cast<std::size_t>(i)] = files.back();
      const bool loaded = rot.load_latest_valid(*inst.sim);
      const Health h = state_health(inst.sim->grid(), inst.sim->params().bc);
      if (!loaded || inst.sim->step_count() != shape.steps || !h.ok(inst.sim->params().p_floor))
        ++unhealthy;
      hashes += hex(state_hash(inst.sim->grid()));
    } catch (const std::exception&) {
      ++unhealthy;
    }
  }
  failed += unhealthy;
  r.gate("every job's final checkpoint reloads healthy", unhealthy == 0,
         std::to_string(unhealthy) + " of " + std::to_string(shape.jobs) + " failed");
  const std::string& a = last_ckp[kFaultJob];
  const std::string& b = last_ckp[kTwinJob];
  const bool twins = !a.empty() && !b.empty() && same_bytes(a, b);
  r.gate("resumed job's final checkpoint equals its twin's bytes", twins, a + " vs " + b);
  std::string detail;
  r.gate("state hash reproducible",
         check_hash_cache(opt.out + "/state_hashes.txt",
                          build_id(opt.self) + ":serve:" + std::to_string(shape.jobs) + "x" +
                              std::to_string(shape.steps) + ":" + std::to_string(opt.seed),
                          text_hash(hashes), &detail),
         detail);

  *dumps = decode_dumps(run.out);
  const int want = shape.jobs * (shape.steps / shape.every) * 2;
  failed += dumps->failed;
  r.gate("dumps decode", dumps->files == want && dumps->failed == 0,
         std::to_string(dumps->files) + " files, " + std::to_string(dumps->failed) + " failed");
  return failed;
}

Result serve_queue(const Options& opt, const Host& host) {
  (void)host;
  Result r;
  const ServeShape shape = serve_size(opt);
  const std::string dir = fresh_dir(opt, "serve_queue");
  const ServeRun run = run_serve(opt, dir, shape);
  const ServeNumbers n = serve_numbers(run, shape);
  DumpTally dumps;
  r.failed = serve_gates(opt, run, shape, n, r, &dumps);
  // Per job: the job, its steps, its p and G dumps and its checkpoints.
  r.attempted = static_cast<long>(shape.jobs) * (1 + shape.steps + 3 * (shape.steps / shape.every));

  r.metric("setup_s", median(n.setup_s), "s");
  r.metric("step_ms_p50", median(n.step_s) * 1e3, "ms");
  r.metric("mcells_per_s",
           run.makespan_s > 0 ? static_cast<double>(shape.jobs) * run.cells_per_job *
                                    shape.steps / run.makespan_s / 1e6
                              : 0,
           "Mcells/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("compression_ratio", dumps.ratio(), "ratio");

  r.extra("makespan_s", run.makespan_s, "s");
  r.extra("job_wall_p50_s", n.job_wall_p50_s, "s");
  r.extra("recovery_s", n.recovery_s, "s");
  r.extra("overhead_frac", n.overhead_frac, "fraction");
  r.extra("attempts", n.attempts, "count");
  r.extra("retries", n.retries, "count");
  r.sample("job_setup_s", n.setup_s);
  r.sample("job_step_s", n.step_s);
  r.sample("job_wall_s", n.job_wall_s);
  return r;
}

}  // namespace mpcf::bench_suite
