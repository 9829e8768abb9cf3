// cluster_weak: the only workload with halos and allreduce. The suite
// re-execs itself as the rank worker under mpcf-run (one OpenMP thread per
// rank, shm transport); the parent times each launch from outside and reads
// the per-rank reports back.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>

#include "cluster/cluster_simulation.h"
#include "cluster/transport.h"
#include "common/config_file.h"
#include "compression/compressor.h"
#include "core/profile.h"
#include "report.h"
#include "scenario/scenario.h"
#include "spans.h"
#include "workloads.h"
#include "workload/cloud.h"

namespace mpcf::bench_suite {
namespace {

struct ClusterSize {
  ClusterShape shape;
  int setup_launches = 4;  ///< extra set-up-only launches at the timed topology
};

ClusterSize cluster_size(const Options& opt) {
  ClusterSize s;
  if (opt.smoke) {
    s.shape.blocks = "2 2 2";
    s.shape.bs = 8;
    s.shape.steps = 6;
    s.setup_launches = 1;
  } else {
    s.shape.blocks = "4 4 4";
    s.shape.bs = 16;
    s.shape.steps = std::max(10L, std::lround(opt.seconds * 4));
  }
  s.shape.dump = true;
  return s;
}

std::string report_path(const std::string& prefix, int rank) {
  return prefix + "_r" + std::to_string(rank) + ".txt";
}

void write_report(const std::string& prefix, const RankReport& rep) {
  std::ostringstream os;
  os.precision(17);
  os << "rank " << rep.rank << "\nready_us " << rep.ready_us << "\nwarm_s " << rep.warm_s
     << "\nloop_s " << rep.loop_s << "\nmessages " << rep.messages << "\nbytes " << rep.bytes
     << "\nrecv_s " << rep.recv_s << "\ncomm_work_s " << rep.comm_work_s << "\nexchange_s "
     << rep.exchange_s << "\nreduce_s " << rep.reduce_s << "\nfinite " << rep.finite
     << "\nmax_p " << rep.max_p << "\nkinetic " << rep.kinetic << "\nhash " << rep.hash
     << "\nstep_s";
  for (const double s : rep.step_s) os << ' ' << s;
  os << '\n';
  write_file(report_path(prefix, rep.rank), os.str());
}

bool read_report(const std::string& path, RankReport& rep) {
  std::istringstream in(read_file(path));
  std::string line;
  std::map<std::string, std::string> kv;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    kv[line.substr(0, sp)] = sp == std::string::npos ? "" : line.substr(sp + 1);
  }
  if (!kv.count("hash")) return false;
  const auto num = [&](const char* k) { return std::atof(kv[k].c_str()); };
  rep.rank = static_cast<int>(num("rank"));
  rep.ready_us = num("ready_us");
  rep.warm_s = num("warm_s");
  rep.loop_s = num("loop_s");
  rep.messages = num("messages");
  rep.bytes = num("bytes");
  rep.recv_s = num("recv_s");
  rep.comm_work_s = num("comm_work_s");
  rep.exchange_s = num("exchange_s");
  rep.reduce_s = num("reduce_s");
  rep.finite = num("finite") != 0;
  rep.max_p = num("max_p");
  rep.kinetic = num("kinetic");
  rep.hash = kv["hash"];
  std::istringstream steps(kv["step_s"]);
  for (double s; steps >> s;) rep.step_s.push_back(s);
  return true;
}

}  // namespace

std::vector<RankReport> cluster_body(const std::string& cfg_path, const std::string& prefix,
                                     const std::string& checkpoint) {
  const Config cfg = Config::parse_file(cfg_path);
  const auto topo = cfg.get_int3("bench", "topology", {1, 1, 1});
  const long steps = cfg.get_long("bench", "steps", 0);
  const bool dump = cfg.get_bool("bench", "dump", false);
  const scenario::GridShape g = scenario::read_grid(cfg, {4, 4, 4, 16});
  Simulation::Params defaults;
  defaults.extent = 1e-3;
  Simulation::Params params = scenario::read_sim_params(cfg, defaults);
  const CloudParams cloud_params = scenario::read_cloud(cfg, CloudParams{});
  const TwoPhaseIC ic = scenario::read_materials(cfg);
  cfg.reject_unknown();

  // [simulation] extent is one rank box's x-extent: h stays fixed as ranks
  // are added.
  const double rank_extent = params.extent;
  params.extent = rank_extent * topo[0];
  const int gbx = g.bx * topo[0], gby = g.by * topo[1], gbz = g.bz * topo[2];
  const cluster::CartTopology cart(topo[0], topo[1], topo[2]);
  cluster::ClusterSimulation cs(gbx, gby, gbz, g.bs, cart, params,
                                cluster::make_env_transport(cart.size()));
  {
    const Span span(Layer::kCluster, "scatter(initial state)");
    const bool root = cs.is_local(0);
    Grid staging = root ? Grid(gbx, gby, gbz, g.bs, params.extent) : Grid(1, 1, 1, g.bs);
    if (root) {
      // The same seeded cloud in every rank box.
      const std::vector<Bubble> cloud = generate_cloud(cloud_params, rank_extent);
      const double lx = rank_extent, ly = lx * g.by / g.bx, lz = lx * g.bz / g.bx;
      std::vector<Bubble> all;
      for (int r = 0; r < cart.size(); ++r) {
        int cx, cy, cz;
        cart.coords(r, cx, cy, cz);
        for (Bubble b : cloud) {
          b.x += cx * lx;
          b.y += cy * ly;
          b.z += cz * lz;
          all.push_back(b);
        }
      }
      set_cloud_ic(staging, all, ic);
    }
    cs.scatter(staging);
  }
  cs.comm().barrier();

  std::vector<RankReport> reps;
  for (const int r : cs.local_ranks()) {
    RankReport rep;
    rep.rank = r;
    rep.ready_us = now_us();
    reps.push_back(rep);
  }
  if (steps > 0) {
    Timer warm;
    {
      const Span span(Layer::kCluster, "step(warm-up)");
      cs.step();
    }
    const double warm_s = warm.seconds();
    cs.comm().reset_stats();
    const double comm_work0 = cs.comm_work_time();
    std::vector<double> step_s;
    Timer loop;
    for (long s = 0; s < steps; ++s) {
      const Span span(Layer::kCluster, "step");
      Timer t;
      cs.step();
      step_s.push_back(t.seconds());
    }
    const double loop_s = loop.seconds();
    const cluster::SimComm::Stats stats = cs.comm().stats();
    const double comm_work_s = cs.comm_work_time() - comm_work0;
    double exchange_s = 0, reduce_s = 0;
    {
      const Span span(Layer::kCluster, "exchange_halos");
      Timer t;
      cs.exchange_halos();
      exchange_s = t.seconds();
    }
    {
      const Span span(Layer::kCluster, "compute_dt");
      Timer t;
      (void)cs.compute_dt();
      reduce_s = t.seconds();
    }
    for (RankReport& rep : reps) {
      rep.warm_s = warm_s;
      rep.step_s = step_s;
      rep.loop_s = loop_s;
      rep.messages = static_cast<double>(stats.messages);
      rep.bytes = static_cast<double>(stats.bytes);
      rep.recv_s = stats.recv_seconds;
      rep.comm_work_s = comm_work_s;
      rep.exchange_s = exchange_s;
      rep.reduce_s = reduce_s;
    }
  }

  const Diagnostics d = [&] {
    const Span span(Layer::kCluster, "diagnostics");
    return cs.diagnostics(ic.vapor.Gamma(), ic.liquid.Gamma());
  }();
  for (RankReport& rep : reps) {
    const Simulation& sim = cs.rank_sim(rep.rank);
    rep.finite = state_health(sim.grid(), sim.params().bc).finite;
    rep.max_p = d.max_p_field;
    rep.kinetic = d.kinetic_energy;
    rep.hash = hex(state_hash(sim.grid()));
  }
  if (dump) {
    const Span span(Layer::kCompression, "dump_collective");
    compression::CompressionParams pp;
    pp.derive_pressure = true;
    pp.eps = 1e5f;
    compression::CompressionParams pg;
    pg.quantity = Q_G;
    pg.eps = 2.3e-3f;
    (void)cs.dump_collective(prefix + "_p.cq", pp);
    (void)cs.dump_collective(prefix + "_G.cq", pg);
  }
  if (!checkpoint.empty()) {
    const Span span(Layer::kIo, "save_checkpoint");
    (void)cs.save_checkpoint(checkpoint);
  }
  return reps;
}

int rank_worker_main(int argc, char** argv) {
  std::string cfg, prefix, checkpoint;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--report" && i + 1 < argc) {
      prefix = argv[++i];
    } else if (a == "--checkpoint" && i + 1 < argc) {
      checkpoint = argv[++i];
    } else if (a == "--trace") {
      trace = true;
    } else if (cfg.empty()) {
      cfg = a;
    } else {
      std::fprintf(stderr, "rank worker: unexpected argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (cfg.empty() || prefix.empty()) {
    std::fprintf(stderr, "usage: bench_suite --rank-worker CFG --report PREFIX "
                         "[--checkpoint FILE] [--trace]\n");
    return 2;
  }
  set_tracing(trace);
  try {
    for (const RankReport& rep : cluster_body(cfg, prefix, checkpoint)) {
      write_report(prefix, rep);
      if (trace)
        write_file(prefix + "_r" + std::to_string(rep.rank) + ".spans",
                   spans_to_text(collect_spans()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank worker: %s\n", e.what());
    return 1;
  }
  return 0;
}

std::string write_cluster_config(const Options& opt, const std::string& dir,
                                 const std::string& tag, const ClusterShape& shape) {
  const std::string path = dir + "/" + tag + ".cfg";
  write_file(path,
             render_template(template_path(opt, "cluster_weak.cfg"),
                             {{"TOPO", std::to_string(shape.topo[0]) + " " +
                                           std::to_string(shape.topo[1]) + " " +
                                           std::to_string(shape.topo[2])},
                              {"STEPS", std::to_string(shape.steps)},
                              {"DUMP", shape.dump ? "true" : "false"},
                              {"BLOCKS", shape.blocks},
                              {"BS", std::to_string(shape.bs)},
                              {"SEED", std::to_string(opt.seed)}}));
  return path;
}

ClusterLaunch launch_cluster(const Options& opt, const std::string& dir, const std::string& tag,
                             const ClusterShape& shape, const std::string& checkpoint,
                             int pid_base) {
  ClusterLaunch l;
  l.prefix = dir + "/" + tag;
  const std::string cfg = write_cluster_config(opt, dir, tag, shape);
  const int n = shape.topo[0] * shape.topo[1] * shape.topo[2];
  std::vector<std::string> argv = {MPCF_RUN_PATH, "-n", std::to_string(n), "--timeout-ms",
                                   "60000", "--", opt.self, "--rank-worker", cfg,
                                   "--report", l.prefix};
  if (!checkpoint.empty()) {
    argv.push_back("--checkpoint");
    argv.push_back(checkpoint);
  }
  if (opt.trace) argv.push_back("--trace");
  const double t0 = now_us();
  {
    const Span span(Layer::kCluster, "mpcf-run launch");
    l.exit_code = run_child(argv, {{"OMP_NUM_THREADS", "1"}}, l.prefix + ".log", 150);
  }
  double ready = t0;
  for (int r = 0; r < n; ++r) {
    RankReport rep;
    try {
      if (!read_report(report_path(l.prefix, r), rep)) continue;
    } catch (const std::exception&) {
      continue;
    }
    ready = std::max(ready, rep.ready_us);
    l.ranks.push_back(rep);
    if (opt.trace) {
      try {
        for (SpanEvent& e : spans_from_text(
                 read_file(l.prefix + "_r" + std::to_string(r) + ".spans"), pid_base + r))
          add_span(std::move(e));
      } catch (const std::exception&) {
      }
    }
  }
  l.setup_s = (ready - t0) * 1e-6;
  return l;
}

Result cluster_weak(const Options& opt, const Host& host) {
  (void)host;
  Result r;
  const ClusterSize sz = cluster_size(opt);
  const std::string dir = fresh_dir(opt, "cluster_weak");
  const double cells_per_rank = grid_cells(sz.shape.blocks, sz.shape.bs);

  ClusterShape one = sz.shape;
  one.topo = {1, 1, 1};
  ClusterShape four = sz.shape;
  four.topo = {2, 2, 1};
  const ClusterLaunch l1 = launch_cluster(opt, dir, "ranks1", one, "", 1);
  const ClusterLaunch l4 = launch_cluster(opt, dir, "ranks4", four, "", 11);
  std::vector<double> setup = {l4.setup_s};
  long failed = (l1.exit_code != 0) + (l4.exit_code != 0);
  for (int i = 0; i < sz.setup_launches; ++i) {
    ClusterShape s = four;
    s.steps = 0;
    s.dump = false;
    const ClusterLaunch l = launch_cluster(opt, dir, "setup" + std::to_string(i), s, "",
                                           21 + 10 * i);
    setup.push_back(l.setup_s);
    failed += l.exit_code != 0;
  }
  r.gate("every rank process exits 0", failed == 0,
         std::to_string(failed) + " of " + std::to_string(2 + sz.setup_launches) +
             " launches failed");

  // Per-step time of a launch: the slowest rank's time for that step.
  const auto step_times = [](const ClusterLaunch& l) {
    std::vector<double> t;
    for (const RankReport& rep : l.ranks) {
      if (t.size() < rep.step_s.size()) t.resize(rep.step_s.size(), 0.0);
      for (std::size_t i = 0; i < rep.step_s.size(); ++i) t[i] = std::max(t[i], rep.step_s[i]);
    }
    return t;
  };
  const std::vector<double> s1 = step_times(l1), s4 = step_times(l4);
  const SampleStats st1 = SampleStats::of(s1), st4 = SampleStats::of(s4);

  for (const auto* l : {&l1, &l4}) {
    const int n = l == &l1 ? 1 : 4;
    bool healthy = static_cast<int>(l->ranks.size()) == n;
    std::string hashes;
    for (const RankReport& rep : l->ranks) {
      Health h;
      h.finite = rep.finite;
      h.max_p = rep.max_p;
      h.kinetic = rep.kinetic;
      healthy = healthy && h.ok(Simulation::Params{}.p_floor) &&
                static_cast<long>(rep.step_s.size()) == sz.shape.steps;
      hashes += rep.hash;
    }
    const std::string tag = n == 1 ? "ranks1" : "ranks4";
    if (!healthy) ++failed;
    r.gate(tag + " final state finite and not floor-wiped", healthy,
           l->ranks.empty() ? "no rank reports"
                            : "max_p " + std::to_string(l->ranks.front().max_p) + " Pa");
    std::string detail;
    const bool same = check_hash_cache(
        opt.out + "/state_hashes.txt",
        build_id(opt.self) + ":cluster_weak:" + tag + ":" + std::to_string(opt.seed) + ":" +
            std::to_string(sz.shape.steps),
        text_hash(hashes), &detail);
    r.gate(tag + " state hash reproducible", same, detail);
  }

  const DumpTally dumps = decode_dumps(dir);
  r.gate("collective dumps decode", dumps.files == 4 && dumps.failed == 0,
         std::to_string(dumps.files) + " files, " + std::to_string(dumps.failed) + " failed");
  failed += dumps.failed;
  r.attempted = 2 + sz.setup_launches + 2 * sz.shape.steps + dumps.files;
  r.failed = failed;

  const double loop4 = [&] {
    double m = 0;
    for (const RankReport& rep : l4.ranks) m = std::max(m, rep.loop_s);
    return m;
  }();
  r.metric("setup_s", median(setup), "s");
  r.metric("step_ms_p50", st4.median * 1e3, "ms");
  r.metric("mcells_per_s", loop4 > 0 ? 4 * cells_per_rank * sz.shape.steps / loop4 / 1e6 : 0,
           "Mcells/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("compression_ratio", dumps.ratio(), "ratio");

  r.extra("weak_eff", st4.median > 0 ? st1.median / st4.median : 0, "ratio");
  r.extra("step_ms_p50_ranks1", st1.median * 1e3, "ms");
  if (st4.tail_pct > 0)
    r.extra("step_ms_p" + std::to_string(st4.tail_pct), st4.tail * 1e3, "ms");
  r.extra("setup_s_ranks1", l1.setup_s, "s");
  if (!l4.ranks.empty()) {
    const RankReport& r0 = l4.ranks.front();
    r.extra("warmup_step_s", r0.warm_s, "s");
    r.extra("halo_mb_per_step_per_rank", r0.bytes / sz.shape.steps / 1e6, "MB");
  }
  r.sample("step_s_ranks4", s4);
  r.sample("step_s_ranks1", s1);
  r.sample("setup_s", setup);
  return r;
}

}  // namespace mpcf::bench_suite
