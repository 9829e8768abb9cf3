#include "scenario/runner.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/profile.h"
#include "io/jsonl.h"
#include "io/ppm.h"
#include "io/retention.h"

namespace mpcf::scenario {
namespace {

/// Zero-padded step tag for dump/slice filenames (sorts chronologically).
std::string step_tag(long step) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06ld", step);
  return buf;
}

bool due(long step, long every) { return every > 0 && step % every == 0; }

}  // namespace

RunSettings read_run_settings(const Config& cfg, const StopCriteria& defaults) {
  RunSettings s;
  s.stop.max_steps = cfg.get_long("run", "steps", defaults.max_steps);
  s.stop.max_time = cfg.get_double("run", "max_time", defaults.max_time);
  s.diag_every = cfg.get_long("run", "diag_every", s.diag_every);
  s.dump_every = cfg.get_long("run", "dump_every", s.dump_every);
  s.dump_eps_p = static_cast<float>(
      cfg.get_double("run", "dump_eps_p", static_cast<double>(s.dump_eps_p)));
  s.dump_eps_G = static_cast<float>(
      cfg.get_double("run", "dump_eps_G", static_cast<double>(s.dump_eps_G)));
  s.slice_every = cfg.get_long("run", "slice_every", s.slice_every);
  s.checkpoint_every = cfg.get_long("run", "checkpoint_every", s.checkpoint_every);
  s.checkpoint_keep = cfg.get_int("run", "checkpoint_keep", s.checkpoint_keep);
  s.fault_exit_at_step = cfg.get_long("fault", "exit_at_step", s.fault_exit_at_step);
  s.fault_exit_on_attempt =
      cfg.get_int("fault", "exit_on_attempt", s.fault_exit_on_attempt);
  if (s.stop.unbounded())
    throw ConfigError(cfg.name() +
                      ": no stop criterion: set [run] steps or max_time (the "
                      "scenario declares no default)");
  if (s.checkpoint_keep < 1)
    throw ConfigError(cfg.name() + ": [run] checkpoint_keep must be >= 1");
  // The [job] section belongs to the mpcf-serve side of the protocol
  // (retries, priorities); a worker must not reject it as unknown.
  cfg.mark_section_used("job");
  return s;
}

RunResult run_scenario(const Config& cfg, const RunOptions& opt) {
  Timer wall;
  ScenarioInstance inst = make_scenario(cfg);
  const double build_s = wall.seconds();
  const RunSettings run = read_run_settings(cfg, inst.stop);
  cfg.reject_unknown();

  Simulation& sim = *inst.sim;
  RunContext ctx;
  std::unique_ptr<io::JsonlWriter> progress;
  std::unique_ptr<io::CheckpointRotator> rotator;
  if (!opt.outdir.empty()) {
    std::filesystem::create_directories(opt.outdir);
    progress = std::make_unique<io::JsonlWriter>(opt.outdir + "/progress.jsonl");
    ctx.outdir = opt.outdir;
    ctx.progress = progress.get();
    if (run.checkpoint_every > 0)
      rotator = std::make_unique<io::CheckpointRotator>(
          opt.outdir + "/checkpoints", "ckp", run.checkpoint_keep);
  }

  RunResult result;
  result.scenario = inst.name;
  double resume_s = 0;
  if (opt.resume && rotator) {
    std::vector<std::string> skipped;
    const Timer resume;
    if (rotator->load_latest_valid(sim, &skipped)) result.resumed_from = sim.step_count();
    resume_s = resume.seconds();
    if (progress)
      for (const auto& path : skipped)
        progress->write(io::JsonObject()
                            .add("event", "checkpoint_skipped")
                            .add("path", path));
  }

  if (progress)
    progress->write(io::JsonObject()
                        .add("event", "start")
                        .add("scenario", inst.name)
                        .add("attempt", opt.attempt)
                        .add("steps_target", run.stop.max_steps)
                        .add("max_time_s", run.stop.max_time)
                        .add("resumed", result.resumed_from >= 0)
                        .add("resume_step", result.resumed_from)
                        .add("build_s", build_s)
                        .add("resume_s", resume_s));
  if (!opt.quiet) {
    std::printf("scenario %s: %d x %d x %d cells, h = %.3e m%s\n", inst.name.c_str(),
                sim.grid().cells_x(), sim.grid().cells_y(), sim.grid().cells_z(),
                sim.grid().h(),
                result.resumed_from >= 0 ? " (resumed from checkpoint)" : "");
    std::printf("%8s %13s %13s %13s %13s\n", "step", "t [s]", "dt [s]", "max p [Pa]",
                "V_vap [m^3]");
  }

  io::SliceRenderOptions slice_opt;
  slice_opt.G_vapor = inst.G_vapor;
  slice_opt.G_liquid = inst.G_liquid;

  while (!run.stop.reached(sim.step_count(), sim.time())) {
    const double dt = sim.step();
    const long step = sim.step_count();
    if (inst.per_step) inst.per_step(sim, dt, ctx);
    if (due(step, run.diag_every) || run.stop.reached(step, sim.time())) {
      const Diagnostics d = sim.diagnostics(inst.G_vapor, inst.G_liquid);
      if (progress)
        progress->write(io::JsonObject()
                            .add("event", "diag")
                            .add("step", step)
                            .add("t_s", sim.time())
                            .add("dt_s", dt)
                            .add("max_p_pa", d.max_p_field)
                            .add("max_p_wall_pa", d.max_p_wall)
                            .add("kinetic_j", d.kinetic_energy)
                            .add("vapor_m3", d.vapor_volume));
      if (!opt.quiet)
        std::printf("%8ld %13.6e %13.6e %13.6e %13.6e\n", step, sim.time(), dt,
                    d.max_p_field, d.vapor_volume);
    }
    if (!opt.outdir.empty() && due(step, run.dump_every))
      sim.dump(opt.outdir + "/dump_" + step_tag(step), run.dump_eps_p, run.dump_eps_G);
    if (!opt.outdir.empty() && due(step, run.slice_every))
      io::write_pressure_slice_ppm(opt.outdir + "/slice_" + step_tag(step) + ".ppm",
                                   sim.grid(), slice_opt);
    if (rotator && due(step, run.checkpoint_every)) rotator->save(sim);
    if (step == run.fault_exit_at_step &&
        (run.fault_exit_on_attempt < 0 || run.fault_exit_on_attempt == opt.attempt)) {
      // Injected worker death (post checkpoint, pre "done"): the job server
      // must observe a crash and resume this job from the rotating
      // checkpoint. _exit skips atexit/destructors like a real SIGKILL
      // would skip everything.
      if (progress)
        progress->write(io::JsonObject()
                            .add("event", "fault_exit")
                            .add("step", step)
                            .add("attempt", opt.attempt));
      ::_exit(9);
    }
  }

  if (inst.finalize) inst.finalize(sim, ctx);

  result.steps = sim.step_count();
  result.time = sim.time();
  result.final_diag = sim.diagnostics(inst.G_vapor, inst.G_liquid);
  result.wall_seconds = wall.seconds();
  if (progress)
    progress->write(io::JsonObject()
                        .add("event", "done")
                        .add("steps", result.steps)
                        .add("t_s", result.time)
                        .add("wall_s", result.wall_seconds)
                        .add("max_p_pa", result.final_diag.max_p_field)
                        .add("vapor_m3", result.final_diag.vapor_volume));
  if (!opt.quiet)
    std::printf("done: %ld steps, t = %.6e s, wall %.2f s\n", result.steps, result.time,
                result.wall_seconds);
  return result;
}

}  // namespace mpcf::scenario
