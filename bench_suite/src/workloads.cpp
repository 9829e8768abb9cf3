// The two in-process workloads (step_large, cloud_job) and the helpers all
// four share.
#include "workloads.h"

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/config_file.h"
#include "compression/compressor.h"
#include "core/profile.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/jsonl.h"
#include "io/retention.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "spans.h"

namespace mpcf::bench_suite {

std::string fresh_dir(const Options& opt, const std::string& name) {
  const std::string dir = opt.out + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string template_path(const Options& opt, const std::string& name) {
  return opt.suite_dir + "/configs/" + name;
}

DumpTally decode_dumps(const std::string& dir) {
  DumpTally t;
  std::vector<std::string> files;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".cq") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const std::string& f : files) {
    ++t.files;
    try {
      const Span span(Layer::kIo, "read_compressed+decode");
      const compression::CompressedQuantity cq = io::read_compressed(f);
      const Field3D<float> field = compression::decompress_to_field(cq);
      bool finite = field.size() == static_cast<std::size_t>(cq.bx) * cq.by * cq.bz *
                                        cq.block_size * cq.block_size * cq.block_size;
      for (std::size_t i = 0; i < field.size() && finite; ++i)
        finite = std::isfinite(field.data()[i]);
      if (!finite) ++t.failed;
      t.raw_bytes += static_cast<double>(cq.uncompressed_bytes());
      t.encoded_bytes += static_cast<double>(cq.compressed_bytes());
    } catch (const std::exception&) {
      ++t.failed;
    }
  }
  return t;
}

namespace {

struct StepLargeSize {
  std::string blocks;
  int bs = 32;
  int steps = 8;
  int setups = 5;
};

StepLargeSize step_large_size(const Options& opt) {
  if (opt.smoke) return {"2 2 3", 16, 2, 2};
  // 8 x 8 x 12 blocks of 32^3: 25.2 M cells, 1.41 GB of block storage
  // (data + RK accumulator), 4.7x a 300 MiB LLC.
  return {"8 8 12", 32, std::max(2, static_cast<int>(std::lround(opt.seconds * 0.35))), 5};
}

}  // namespace

CloudJobSize cloud_job_size(const Options& opt) {
  if (opt.smoke) return {"4 4 4", 8, 12, 4, 4, 4, 3};
  // 12^3 blocks of 8^3: 884 k cells (48 MB with the accumulator, in LLC);
  // a 14^3 lab per 8^3 block is 5.4x ghost amplification.
  const int steps = std::clamp(40 * static_cast<int>(std::lround(opt.seconds * 6 / 40)), 40, 120);
  return {"12 12 12", 8, steps, 20, 20, 40, 9};
}

std::string write_cloud_job_config(const Options& opt, const std::string& dir,
                                   const CloudJobSize& sz) {
  const std::string path = dir + "/cloud_job.cfg";
  write_file(path, render_template(template_path(opt, "cloud_job.cfg"),
                                   {{"SEED", std::to_string(opt.seed)},
                                    {"BLOCKS", sz.blocks},
                                    {"BS", std::to_string(sz.bs)},
                                    {"STEPS", std::to_string(sz.steps)},
                                    {"DIAG", std::to_string(sz.diag)},
                                    {"DUMP", std::to_string(sz.dump)},
                                    {"CKPT", std::to_string(sz.ckpt)}}));
  return path;
}

Result step_large(const Options& opt, const Host& host) {
  Result r;
  const StepLargeSize sz = step_large_size(opt);
  const std::string dir = fresh_dir(opt, "step_large");
  const std::string cfg_path = dir + "/step_large.cfg";
  write_file(cfg_path, render_template(template_path(opt, "step_large.cfg"),
                                       {{"SEED", std::to_string(opt.seed)},
                                        {"BLOCKS", sz.blocks},
                                        {"BS", std::to_string(sz.bs)},
                                        {"STEPS", std::to_string(sz.steps)}}));

  // Set-up: build the scenario (allocation + initial condition) several
  // times; the previous instance is freed first, so memory holds one grid.
  std::vector<double> setup;
  scenario::ScenarioInstance inst;
  for (int i = 0; i < sz.setups; ++i) {
    inst = scenario::ScenarioInstance{};
    const Config cfg = Config::parse_file(cfg_path);
    const Span span(Layer::kScenario, "make_scenario");
    Timer t;
    inst = scenario::make_scenario(cfg);
    setup.push_back(t.seconds());
    (void)scenario::read_run_settings(cfg, inst.stop);
    cfg.reject_unknown();
  }
  Simulation& sim = *inst.sim;
  const double cells = static_cast<double>(sim.grid().cell_count());

  // The first step builds the step graph and calibrates UPDATE; not timed.
  Timer warm;
  {
    const Span span(Layer::kCore, "step(warm-up)");
    sim.step();
  }
  const double warm_s = warm.seconds();

  std::vector<double> steps;
  long bad_steps = 0;
  for (int s = 0; s < sz.steps; ++s) {
    const Span span(Layer::kCore, "step");
    Timer t;
    const double dt = sim.step();
    steps.push_back(t.seconds());
    if (!(std::isfinite(dt) && dt > 0)) ++bad_steps;
  }
  double total = 0;
  for (const double s : steps) total += s;

  const Health h = state_health(sim.grid(), sim.params().bc);
  const bool healthy = h.ok(sim.params().p_floor) && bad_steps == 0;
  r.gate("final state finite and not floor-wiped", healthy, h.describe());
  std::string detail;
  r.gate("state hash reproducible",
         check_hash_cache(opt.out + "/state_hashes.txt",
                          build_id(opt.self) + ":step_large:" + std::to_string(opt.seed) +
                              ":" + std::to_string(sz.steps),
                          hex(state_hash(sim.grid())), &detail),
         detail);

  // One p/G dump of the final state, outside the timed steps.
  {
    const Span span(Layer::kCompression, "Simulation::dump");
    (void)sim.dump(dir + "/final");
  }
  const DumpTally dumps = decode_dumps(dir);
  r.gate("dumps decode", dumps.files == 2 && dumps.failed == 0,
         std::to_string(dumps.files) + " files, " + std::to_string(dumps.failed) + " failed");

  r.attempted = sz.setups + 1 + sz.steps + dumps.files;
  r.failed = bad_steps + (h.ok(sim.params().p_floor) ? 0 : 1) + dumps.failed;

  r.metric("setup_s", median(setup), "s");
  r.metric("step_ms_p50", median(steps) * 1e3, "ms");
  r.metric("mcells_per_s", cells * sz.steps / total / 1e6, "Mcells/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("compression_ratio", dumps.ratio(), "ratio");

  const double gflops = sim.flops_per_step() * sz.steps / total / 1e9;
  r.extra("cells", cells, "count");
  r.extra("working_set_gb", 2.0 * cells * sizeof(Cell) / 1e9, "GB");
  r.extra("warmup_step_s", warm_s, "s");
  r.extra("gflops", gflops, "GFLOP/s");
  r.extra("peak_frac", host.fma_all_gflops > 0 ? gflops / host.fma_all_gflops : 0, "fraction");
  r.extra("clamped_cells", static_cast<double>(sim.params().clamped_cells), "count");
  r.sample("step_s", steps);
  r.sample("setup_s", setup);
  return r;
}

Result cloud_job(const Options& opt, const Host& host) {
  (void)host;
  Result r;
  const CloudJobSize sz = cloud_job_size(opt);
  const std::string dir = fresh_dir(opt, "cloud_job");
  const std::string cfg_path = write_cloud_job_config(opt, dir, sz);

  // Set-up, measured apart from the job: build the scenario several times.
  std::vector<double> setup;
  double cells = 0;
  for (int i = 0; i < sz.setups; ++i) {
    const Config cfg = Config::parse_file(cfg_path);
    const Span span(Layer::kScenario, "make_scenario");
    Timer t;
    const scenario::ScenarioInstance inst = scenario::make_scenario(cfg);
    setup.push_back(t.seconds());
    cells = static_cast<double>(inst.sim->grid().cell_count());
  }

  // The job, exactly as mpcf-sim runs it. Progress rows carry no wall
  // clock, so a watcher thread timestamps each row as it lands; it sleeps
  // in inotify between writes instead of polling, to stay off the cores the
  // job's four threads use.
  const std::string outdir = dir + "/job";
  std::filesystem::create_directories(outdir);
  const int inotify = ::inotify_init1(IN_CLOEXEC);
  if (inotify < 0 ||
      ::inotify_add_watch(inotify, outdir.c_str(), IN_MODIFY | IN_CREATE | IN_MOVED_TO) < 0)
    throw std::runtime_error("cloud_job: cannot watch " + outdir);
  std::atomic<bool> stop{false};
  std::vector<std::pair<double, long>> rows_seen;  // (time, step; -1 = start)
  std::thread watcher([&] {
    std::size_t seen = 0;
    alignas(inotify_event) char events[4096];
    while (true) {
      const bool last = stop.load(std::memory_order_acquire);
      pollfd pfd{inotify, POLLIN, 0};
      if (!last && ::poll(&pfd, 1, 50) > 0) (void)::read(inotify, events, sizeof(events));
      const double t = now_us();
      const std::vector<std::string> rows = io::read_jsonl(outdir + "/progress.jsonl");
      for (; seen < rows.size(); ++seen) {
        const auto ev = io::json_find_string(rows[seen], "event");
        const auto step = io::json_find_number(rows[seen], "step");
        if (ev && *ev == "start") rows_seen.emplace_back(t, -1);
        if (ev && *ev == "diag" && step) rows_seen.emplace_back(t, static_cast<long>(*step));
      }
      if (last) break;
    }
  });
  scenario::RunResult job;
  std::string job_error;
  try {
    const Span span(Layer::kScenario, "run_scenario");
    scenario::RunOptions ro;
    ro.outdir = outdir;
    ro.quiet = true;
    job = scenario::run_scenario(Config::parse_file(cfg_path), ro);
  } catch (const std::exception& e) {
    job_error = e.what();
  }
  stop.store(true, std::memory_order_release);
  watcher.join();
  ::close(inotify);
  r.gate("job completes", job_error.empty() && job.steps == sz.steps,
         job_error.empty() ? std::to_string(job.steps) + " steps" : job_error);

  // Wall per step over each diag interval (dumps and checkpoints included).
  std::vector<double> step_s;
  for (std::size_t i = 1; i < rows_seen.size(); ++i) {
    const long from = std::max(0L, rows_seen[i - 1].second);
    const long n = rows_seen[i].second - from;
    if (n > 0) step_s.push_back((rows_seen[i].first - rows_seen[i - 1].first) * 1e-6 / n);
  }

  // The newest checkpoint reloads through load_latest_valid to the job's
  // final state: same step, same max pressure (max is order-independent).
  long failed = job_error.empty() ? 0 : 1;
  int bad_ckpt = 0;
  int ckpts = 0;
  {
    const Span span(Layer::kIo, "load_latest_valid");
    scenario::ScenarioInstance inst = scenario::make_scenario(Config::parse_file(cfg_path));
    const io::CheckpointRotator rot(outdir + "/checkpoints", "ckp", 3);
    for (const std::string& f : rot.list()) {
      ++ckpts;
      try {
        io::load_checkpoint(f, *inst.sim);
      } catch (const std::exception&) {
        ++bad_ckpt;
      }
    }
    const bool loaded = rot.load_latest_valid(*inst.sim);
    const Health h = state_health(inst.sim->grid(), inst.sim->params().bc);
    const bool same = loaded && inst.sim->step_count() == sz.steps &&
                      h.max_p == job.final_diag.max_p_field;
    r.gate("final checkpoint reloads to the job's final state", same && bad_ckpt == 0,
           "step " + std::to_string(inst.sim->step_count()) + ", " + h.describe());
    r.gate("final state finite and not floor-wiped", h.ok(inst.sim->params().p_floor),
           h.describe());
    if (!h.ok(inst.sim->params().p_floor)) ++failed;
    std::string detail;
    r.gate("state hash reproducible",
           check_hash_cache(opt.out + "/state_hashes.txt",
                            build_id(opt.self) + ":cloud_job:" + std::to_string(opt.seed) +
                                ":" + std::to_string(sz.steps),
                            hex(state_hash(inst.sim->grid())), &detail),
           detail);
  }
  const DumpTally dumps = decode_dumps(outdir);
  const int want_dumps = 2 * (sz.steps / sz.dump);
  r.gate("dumps decode", dumps.files == want_dumps && dumps.failed == 0,
         std::to_string(dumps.files) + " files, " + std::to_string(dumps.failed) + " failed");
  failed += dumps.failed + bad_ckpt;
  r.attempted = 1 + sz.steps + want_dumps + sz.steps / sz.ckpt;
  r.failed = failed;

  r.metric("setup_s", median(setup), "s");
  r.metric("step_ms_p50", median(step_s) * 1e3, "ms");
  r.metric("mcells_per_s",
           job.wall_seconds > 0 ? cells * sz.steps / job.wall_seconds / 1e6 : 0, "Mcells/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("compression_ratio", dumps.ratio(), "ratio");

  r.extra("job_wall_s", job.wall_seconds, "s");
  r.extra("cells", cells, "count");
  r.extra("checkpoints_loaded", ckpts, "count");
  r.sample("interval_step_s", step_s);
  r.sample("setup_s", setup);
  return r;
}

}  // namespace mpcf::bench_suite
