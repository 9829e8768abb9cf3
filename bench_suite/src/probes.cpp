#include "probes.h"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/config_file.h"
#include "compression/pipeline.h"
#include "core/profile.h"
#include "io/checkpoint.h"
#include "kernels/update.h"
#include "perf/oi_model.h"
#include "scenario/scenario.h"
#include "spans.h"
#include "workloads.h"

namespace mpcf::bench_suite {
namespace {

/// Per-thread call-time accumulators of the staged replay (padded so two
/// threads never share a cache line).
struct alignas(64) ThreadTimes {
  double lab = 0, rhs = 0, up = 0, sos = 0;
  [[nodiscard]] double busy() const { return lab + rhs + up; }
};

}  // namespace

void probe_node(const Options& opt, const Host& host, Result& r) {
  const std::string dir = fresh_dir(opt, "probe_node");
  const std::string blocks = opt.smoke ? "2 2 2" : "4 4 4";
  const int bs = opt.smoke ? 16 : 32;
  const std::string cfg_path = dir + "/node.cfg";
  write_file(cfg_path, render_template(template_path(opt, "step_large.cfg"),
                                       {{"SEED", std::to_string(opt.seed)},
                                        {"BLOCKS", blocks},
                                        {"BS", std::to_string(bs)},
                                        {"STEPS", "1"}}));
  const auto make = [&](bool fused) {
    Config cfg = Config::parse_file(cfg_path);
    cfg.set("simulation", "fused_step", fused ? "true" : "false");
    const Span span(Layer::kScenario, "make_scenario");
    return scenario::make_scenario(cfg);
  };
  scenario::ScenarioInstance fused = make(true), staged = make(false), replay = make(true);
  Simulation& rs = *replay.sim;
  const int nthreads = omp_get_max_threads();
  const int nb = rs.grid().block_count();
  rs.ensure_thread_workspaces();

  // Staged replay of one step through the public per-block hooks: the
  // barrier-separated schedule, every call timed and (when tracing) spanned.
  std::vector<ThreadTimes> tt(static_cast<std::size_t>(nthreads));
  double region_wall = 0;
  long block_stages = 0;
  const auto replay_step = [&] {
    Timer step_clock;
    const Span step_span(Layer::kCore, "replay step");
    const long parent = step_span.id();
    double dt = 0;
    {
      const Span span(Layer::kCore, "compute_dt");
      dt = rs.compute_dt();
    }
    for (int st = 0; st < LsRk3::kStages; ++st) {
      Timer region;
#pragma omp parallel
      {
        ThreadTimes& mine = tt[static_cast<std::size_t>(omp_get_thread_num())];
        const int tid = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
        for (int b = 0; b < nb; ++b) {
          const double t0 = now_us();
          {
            const Span span(Layer::kGrid, "assemble_lab", parent);
            rs.assemble_lab(b, tid);
          }
          const double t1 = now_us();
          {
            const Span span(Layer::kKernels, "rhs_from_lab", parent);
            rs.rhs_from_lab(LsRk3::a[st], b, tid);
          }
          mine.lab += (t1 - t0) * 1e-6;
          mine.rhs += (now_us() - t1) * 1e-6;
        }
#pragma omp for schedule(static)
        for (int b = 0; b < nb; ++b) {
          const double t0 = now_us();
          {
            const Span span(Layer::kKernels, "update_one", parent);
            rs.update_one(LsRk3::b[st] * dt, b);
          }
          mine.up += (now_us() - t0) * 1e-6;
        }
      }
      region_wall += region.seconds();
      block_stages += nb;
    }
    {
      const Span span(Layer::kCore, "apply_positivity_guard");
      rs.apply_positivity_guard();
    }
    rs.restore_clock(rs.time() + dt, rs.step_count() + 1);
    return step_clock.seconds();
  };

  // Replay steps alternate span recording off/on; fused and staged
  // simulations take the same steps, so all three must agree bitwise.
  const int replay_steps = opt.smoke ? 2 : 4;
  std::vector<double> traced, untraced;
  const bool was_tracing = tracing();
  for (int k = 0; k < replay_steps; ++k) {
    set_tracing(k % 2 == 1);
    (k % 2 == 1 ? traced : untraced).push_back(replay_step());
  }
  set_tracing(was_tracing);
  for (int k = 0; k < replay_steps; ++k) {
    {
      const Span span(Layer::kCore, "step(fused)");
      fused.sim->step();
    }
    const Span span(Layer::kCore, "step(staged)");
    staged.sim->step();
  }
  const std::string h_fused = hex(state_hash(fused.sim->grid()));
  const std::string h_replay = hex(state_hash(rs.grid()));
  const std::string h_staged = hex(state_hash(staged.sim->grid()));
  r.gate("fused step == staged replay through the public hooks (bitwise)",
         h_fused == h_replay && h_fused == h_staged,
         "fused " + h_fused + ", replay " + h_replay + ", staged " + h_staged);

  // SOS reduction per block.
  for (int sweep = 0; sweep < 3; ++sweep) {
#pragma omp parallel
    {
      ThreadTimes& mine = tt[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
      for (int b = 0; b < nb; ++b) {
        double acc = 0;
        const double t0 = now_us();
        {
          const Span span(Layer::kKernels, "accumulate_block_speed");
          rs.accumulate_block_speed(b, acc);
        }
        mine.sos += (now_us() - t0) * 1e-6;
      }
    }
  }

  // Fused vs staged and thread speedup at 4, 2 and 1 threads (after the
  // steps above, both simulations are warm).
  std::map<int, std::pair<double, double>> p50;  // threads -> (fused, staged)
  const int timed = opt.smoke ? 1 : 2;
  for (const int t : {4, 2, 1}) {
    omp_set_num_threads(t);
    std::vector<double> f, s;
    for (int k = 0; k < timed; ++k) {
      Timer tf;
      {
        const Span span(Layer::kCore, "step(fused)");
        fused.sim->step();
      }
      f.push_back(tf.seconds());
      Timer ts;
      {
        const Span span(Layer::kCore, "step(staged)");
        staged.sim->step();
      }
      s.push_back(ts.seconds());
    }
    p50[t] = {median(f), median(s)};
  }
  omp_set_num_threads(nthreads);
  const bool still_equal =
      state_hash(fused.sim->grid()) == state_hash(staged.sim->grid());
  r.gate("fused == staged after the thread sweep (bitwise)", still_equal);

  double lab = 0, rhs = 0, up = 0, sos = 0;
  std::vector<double> busy;
  for (const ThreadTimes& t : tt) {
    lab += t.lab;
    rhs += t.rhs;
    up += t.up;
    sos += t.sos;
    busy.push_back(t.busy());
  }
  const double n = static_cast<double>(block_stages);
  // Rates scale per-call thread time to the whole team: each thread's own
  // rate times the thread count.
  const double rhs_gflops = n * kernels::rhs_flops(bs) / rhs * nthreads / 1e9;
  const perf::KernelTraffic rhs_t = perf::rhs_traffic(bs);
  const double rhs_roof = std::min(host.fma_all_gflops, rhs_t.oi_reordered() * host.triad_gbs);
  const double up_gbs = n * perf::up_traffic(bs).bytes_reordered / up * nthreads / 1e9;
  const double sos_gbs = 3.0 * nb * perf::dt_traffic(bs).bytes_reordered / sos * nthreads / 1e9;
  const kernels::UpdateChoice choice = kernels::update_auto_choice(bs, simd::Width::kAuto);

  r.metric("kernels.rhs_gflops", rhs_gflops, "GFLOP/s");
  r.metric("kernels.rhs_roofline_frac", rhs_gflops / rhs_roof, "fraction");
  r.metric("kernels.update_gbs", up_gbs, "GB/s");
  r.metric("kernels.update_roofline_frac", up_gbs / host.triad_gbs, "fraction");
  // 10 x lanes, + 1 for regular (cache-allocating) stores: wider is better,
  // and at one width the non-temporal variant measures slower.
  r.metric("kernels.update_choice",
           10.0 * simd::lanes(choice.width) +
               (choice.variant == kernels::UpdateVariant::kRegular ? 1 : 0),
           "code");
  r.metric("kernels.sos_gbs", sos_gbs, "GB/s");
  r.metric("grid.lab_us_per_block", lab / n * 1e6, "us");
  r.metric("grid.lab_share", lab / (lab + rhs + up), "fraction");
  r.metric("core.block_task_us", (lab + rhs + up) / n * 1e6, "us");
  r.metric("core.imbalance", imbalance(busy), "ratio");
  r.metric("core.idle_frac", 1.0 - (lab + rhs + up) / (nthreads * region_wall), "fraction");
  for (const int t : {1, 2, 4}) {
    r.metric("core.fusion_gain_t" + std::to_string(t), p50[t].second / p50[t].first, "ratio");
    if (t > 1)
      r.metric("core.thread_speedup_t" + std::to_string(t), p50[1].first / p50[t].first,
               "ratio");
  }
  r.metric("core.sos_sweeps", static_cast<double>(fused.sim->profile().sos_sweeps), "count");
  r.metric("trace.overhead_frac", median(traced) / median(untraced) - 1.0, "fraction");

  r.extra("node.rhs_oi_flop_per_byte", rhs_t.oi_reordered(), "FLOP/B");
  r.extra("node.update_bytes_are_computed", 1, "flag");
  r.extra("node.clamped_cells", static_cast<double>(fused.sim->params().clamped_cells), "count");
  for (const int t : {1, 2, 4}) {
    r.extra("node.fused_step_ms_t" + std::to_string(t), p50[t].first * 1e3, "ms");
    r.extra("node.staged_step_ms_t" + std::to_string(t), p50[t].second * 1e3, "ms");
  }
  r.sample("node.replay_traced_s", traced);
  r.sample("node.replay_untraced_s", untraced);
  // Steps taken: the replay, its fused and staged twins, the thread sweep.
  r.attempted += 3L * replay_steps + 3L * 2 * timed;
}

void probe_job_io(const Options& opt, Result& r) {
  const std::string dir = fresh_dir(opt, "probe_job_io");
  const CloudJobSize sz = cloud_job_size(opt);
  const std::string cfg_path = write_cloud_job_config(opt, dir, sz);

  std::vector<double> build;
  scenario::ScenarioInstance inst;
  for (int i = 0; i < 3; ++i) {
    inst = scenario::ScenarioInstance{};
    const Config cfg = Config::parse_file(cfg_path);
    const Span span(Layer::kScenario, "make_scenario");
    Timer t;
    inst = scenario::make_scenario(cfg);
    build.push_back(t.seconds());
  }
  Simulation& sim = *inst.sim;
  std::vector<double> step, diag, dump, dump_gbs, dec, enc, imb, write, ckpt, ckpt_mb;
  double ratio_p = 0, ratio_g = 0;
  for (int i = 0; i < 3; ++i) {
    {
      Timer t;
      const Span span(Layer::kCore, "step");
      sim.step();
      step.push_back(t.seconds());
    }
    {
      Timer t;
      const Span span(Layer::kScenario, "diagnostics");
      (void)sim.diagnostics(inst.G_vapor, inst.G_liquid);
      diag.push_back(t.seconds());
    }
    // Simulation::dump's parameters, one pipelined dump per quantity.
    compression::CompressionParams pg;
    pg.quantity = Q_G;
    pg.eps = 2.3e-3f;
    compression::CompressionParams pp;
    pp.derive_pressure = true;
    pp.eps = 1e5f;
    compression::PipelineStats sg, sp;
    Timer t;
    {
      const Span span(Layer::kCompression, "dump_quantity_pipelined(G)");
      (void)compression::dump_quantity_pipelined(sim.grid(), pg,
                                                 dir + "/d" + std::to_string(i) + "_G.cq", &sg);
    }
    {
      const Span span(Layer::kCompression, "dump_quantity_pipelined(p)");
      (void)compression::dump_quantity_pipelined(sim.grid(), pp,
                                                 dir + "/d" + std::to_string(i) + "_p.cq", &sp);
    }
    const double secs = t.seconds();
    dump.push_back(secs);
    dump_gbs.push_back(static_cast<double>(sg.uncompressed_bytes + sp.uncompressed_bytes) /
                       secs / 1e9);
    std::vector<double> per_worker(std::max(sg.worker_times.size(), sp.worker_times.size()));
    double d = 0, e = 0;
    for (const auto* s : {&sg, &sp})
      for (std::size_t w = 0; w < s->worker_times.size(); ++w) {
        d += s->worker_times[w].dec;
        e += s->worker_times[w].enc;
        per_worker[w] += s->worker_times[w].dec + s->worker_times[w].enc;
      }
    dec.push_back(d);
    enc.push_back(e);
    imb.push_back(imbalance(per_worker));
    write.push_back(sg.write_seconds + sp.write_seconds);
    ratio_p = static_cast<double>(sp.uncompressed_bytes) / static_cast<double>(sp.compressed_bytes);
    ratio_g = static_cast<double>(sg.uncompressed_bytes) / static_cast<double>(sg.compressed_bytes);
    {
      const Span span(Layer::kIo, "save_checkpoint");
      Timer tc;
      const auto bytes = io::save_checkpoint(dir + "/c" + std::to_string(i) + ".ckp", sim);
      ckpt.push_back(tc.seconds());
      ckpt_mb.push_back(static_cast<double>(bytes) / 1e6);
    }
  }
  const std::uint64_t before = state_hash(sim.grid());
  {
    const Span span(Layer::kIo, "load_checkpoint");
    io::load_checkpoint(dir + "/c2.ckp", sim);
  }
  r.gate("checkpoint reloads to the same state hash", state_hash(sim.grid()) == before);
  const DumpTally dumps = decode_dumps(dir);
  r.gate("probe dumps decode", dumps.files == 6 && dumps.failed == 0);

  const double state_mb = static_cast<double>(sim.grid().cell_count()) * sizeof(Cell) / 1e6;
  // Fig 7 split of the cloud_job cadence, composed from the measured parts.
  const double io_s = (sz.steps / sz.dump) * median(dump) + (sz.steps / sz.ckpt) * median(ckpt);
  const double compute_s = sz.steps * median(step) + (sz.steps / sz.diag) * median(diag);

  r.metric("compression.dump_ms", median(dump) * 1e3, "ms");
  r.metric("compression.dump_gbs", median(dump_gbs), "GB/s");
  r.metric("compression.dec_s", median(dec), "s");
  r.metric("compression.enc_s", median(enc), "s");
  r.metric("compression.worker_imbalance", median(imb), "ratio");
  r.metric("compression.ratio_p", ratio_p, "ratio");
  r.metric("compression.ratio_G", ratio_g, "ratio");
  r.metric("io.write_ms", median(write) * 1e3, "ms");
  r.metric("io.checkpoint_ms", median(ckpt) * 1e3, "ms");
  r.metric("io.checkpoint_mb", median(ckpt_mb), "MB");
  r.metric("io.checkpoint_mbs", state_mb / median(ckpt), "MB/s");
  r.metric("scenario.build_s", median(build), "s");
  r.metric("scenario.diag_ms", median(diag) * 1e3, "ms");
  r.metric("scenario.io_frac", io_s / (io_s + compute_s), "fraction");
  r.extra("job_io.step_ms", median(step) * 1e3, "ms");
  r.attempted += 3 * 4 + 1 + dumps.files;
  r.failed += dumps.failed;
}

void probe_cluster(const Options& opt, Result& r) {
  const std::string dir = fresh_dir(opt, "probe_cluster");
  ClusterShape shape;
  shape.topo = {2, 2, 1};
  shape.blocks = "2 2 2";
  shape.bs = opt.smoke ? 8 : 16;
  shape.steps = opt.smoke ? 3 : 10;
  const ClusterLaunch mp = launch_cluster(opt, dir, "mp", shape, dir + "/mp.ckp", 1000);
  const std::string cfg = write_cluster_config(opt, dir, "oracle", shape);
  std::vector<RankReport> oracle;
  {
    const Span span(Layer::kCluster, "in-memory oracle");
    oracle = cluster_body(cfg, dir + "/oracle", dir + "/oracle.ckp");
  }
  const bool same = mp.exit_code == 0 && mp.ranks.size() == 4 &&
                    same_bytes(dir + "/mp.ckp", dir + "/oracle.ckp");
  r.gate("mp ranks == in-memory oracle (checkpoint bytes)", same,
         "mpcf-run exit " + std::to_string(mp.exit_code));
  r.attempted += 2;
  if (!same) ++r.failed;

  RankReport r0 = mp.ranks.empty() ? RankReport{} : mp.ranks.front();
  std::vector<double> mp_steps(r0.step_s.size(), 0.0);
  for (const RankReport& rep : mp.ranks)
    for (std::size_t i = 0; i < rep.step_s.size() && i < mp_steps.size(); ++i)
      mp_steps[i] = std::max(mp_steps[i], rep.step_s[i]);
  const double steps = static_cast<double>(shape.steps);
  r.metric("cluster.halo_mb_per_step", r0.bytes / steps / 1e6, "MB");
  r.metric("cluster.msgs_per_step", r0.messages / steps, "count");
  r.metric("cluster.recv_ms_per_step", r0.recv_s / steps * 1e3, "ms");
  r.metric("cluster.comm_work_ms", r0.comm_work_s / steps * 1e3, "ms");
  r.metric("cluster.exchange_ms", r0.exchange_s * 1e3, "ms");
  r.metric("cluster.reduce_ms", r0.reduce_s * 1e3, "ms");
  r.metric("cluster.transport_overhead",
           oracle.empty() ? 0 : median(mp_steps) / median(oracle.front().step_s), "ratio");
}

void probe_serve(const Options& opt, Result& r) {
  const std::string dir = fresh_dir(opt, "probe_serve");
  ServeShape shape;
  shape.jobs = 8;
  shape.blocks = "2 2 2";
  shape.bs = 8;
  shape.steps = 12;
  shape.every = 4;
  shape.fault_at = 8;
  const ServeRun run = run_serve(opt, dir, shape);
  const ServeNumbers n = serve_numbers(run, shape);
  DumpTally dumps;
  r.failed += serve_gates(opt, run, shape, n, r, &dumps);
  r.attempted += shape.jobs;
  r.metric("serve.overhead_frac", n.overhead_frac, "fraction");
  r.metric("serve.attempts", n.attempts, "count");
  r.metric("serve.retries", n.retries, "count");
  r.metric("serve.recovery_s", n.recovery_s, "s");
  r.metric("serve.job_wall_p50_s", n.job_wall_p50_s, "s");
  r.extra("serve.makespan_s", run.makespan_s, "s");
}

}  // namespace mpcf::bench_suite
