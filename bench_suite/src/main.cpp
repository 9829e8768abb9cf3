// bench_suite: the layered benchmark of this repository.
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//               [--benchmark-json FILE] [--source-id ID] [--git-sha SHA]
//   bench_suite --smoke --out DIR [--benchmark-json FILE]
//   bench_suite --rank-worker CFG --report PREFIX [--checkpoint FILE] [--trace]
//
// A run measures one workload (step_large | cloud_job | cluster_weak |
// serve_queue) untraced and prints its end-to-end metrics; --trace 1 runs
// it with spans around every call the suite makes into the program, then the
// per-layer probes, and prints the per-layer metrics instead, writing a
// chrome trace and a per-layer self-time table. Every run checks its outputs
// (correctness gates) and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// The exit code is 0 only when every gate passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>

#include "core/profile.h"
#include "host.h"
#include "probes.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

using namespace mpcf::bench_suite;

namespace {

using WorkloadFn = Result (*)(const Options&, const Host&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> w = {{"step_large", step_large},
                                                      {"cloud_job", cloud_job},
                                                      {"cluster_weak", cluster_weak},
                                                      {"serve_queue", serve_queue}};
  return w;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload NAME --seed N --seconds S --trace 0|1 --out DIR\n"
               "                   [--benchmark-json FILE] [--source-id ID] [--git-sha SHA]\n"
               "       bench_suite --smoke --out DIR [--benchmark-json FILE]\n"
               "workloads: step_large cloud_job cluster_weak serve_queue\n");
  return 2;
}

void print_gates(const Result& r) {
  for (const Gate& g : r.gates)
    std::printf("  [%s] %s%s%s\n", g.ok ? " ok " : "FAIL", g.name.c_str(),
                g.detail.empty() ? "" : ": ", g.detail.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Per-layer probes, merged into `r` (traced runs and the smoke test).
void run_probes(const Options& opt, const Host& host, Result& r) {
  const Span span(Layer::kSuite, "per-layer probes");
  probe_node(opt, host, r);
  probe_job_io(opt, r);
  probe_cluster(opt, r);
  probe_serve(opt, r);
}

std::string write_trace_outputs(const Options& opt, const std::string& stem) {
  const std::vector<SpanEvent> spans = collect_spans();
  const std::string trace_path = stem + ".chrome.json";
  write_file(trace_path, chrome_trace_json(spans));
  const std::vector<LayerSelf> self = self_time_by_layer(spans);
  double total = 0;
  for (const LayerSelf& l : self) total += l.self_s;
  std::string table = "layer         spans      self_s   share\n";
  char line[128];
  for (int i = 0; i < kNumLayers; ++i) {
    std::snprintf(line, sizeof(line), "%-12s %6ld %11.4f %6.1f%%\n",
                  layer_name(static_cast<Layer>(i)), self[i].spans, self[i].self_s,
                  total > 0 ? 100.0 * self[i].self_s / total : 0.0);
    table += line;
  }
  write_file(stem + ".selftime.txt", table);
  std::printf("per-layer self time (%s):\n%s", opt.workload.c_str(), table.c_str());
  return trace_path;
}

/// All four workloads at toy size, then the probes; every gate must pass
/// and the metric names must match BENCHMARK.json.
int run_smoke(Options opt, const std::string& benchmark_json) {
  opt.smoke = true;
  opt.seconds = 2;
  Host host = measure_host(opt);
  bool ok = true;
  for (const auto& [name, fn] : workloads()) {
    opt.workload = name;
    mpcf::Timer t;
    Result r = fn(opt, host);
    if (!benchmark_json.empty()) check_names(r, benchmark_json, "end_to_end");
    std::printf("%s (%.1f s): %s\n", name.c_str(), t.seconds(), result_line(r).c_str());
    print_gates(r);
    ok = ok && r.correct() && r.failed == 0;
  }
  measure_bandwidth(host);
  set_tracing(true);
  opt.workload = "probes";
  opt.trace = true;
  mpcf::Timer t;
  Result p;
  run_probes(opt, host, p);
  if (!benchmark_json.empty()) check_names(p, benchmark_json, "per_layer");
  std::printf("probes (%.1f s): %s\n", t.seconds(), result_line(p).c_str());
  print_gates(p);
  ok = ok && p.correct() && p.failed == 0;
  std::printf("bench_suite smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--rank-worker") == 0) return rank_worker_main(argc, argv);

  Options opt;
  std::string benchmark_json;
  bool smoke = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      smoke = true;
    } else if (v == nullptr) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      opt.trace = std::atoi(argv[++i]) != 0;
      have_trace = true;
    } else if (a == "--out") {
      opt.out = argv[++i];
    } else if (a == "--benchmark-json") {
      benchmark_json = argv[++i];
    } else if (a == "--source-id") {
      opt.source_id = argv[++i];
    } else if (a == "--git-sha") {
      opt.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.out.empty()) return usage();
  opt.out = std::filesystem::absolute(opt.out).string();
  opt.self = std::filesystem::absolute(argv[0]).string();
  opt.suite_dir = BENCH_SUITE_DIR;
  std::filesystem::create_directories(opt.out + "/results");

  try {
    if (smoke) return run_smoke(opt, benchmark_json);
    if (!have_seed || !have_seconds || !have_trace || !workloads().count(opt.workload))
      return usage();

    Host host = measure_host(opt);
    std::printf("bench_suite %s seed %llu, %.0f s, trace %d: %d threads, %s, peak %.1f "
                "GFLOP/s/core\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, host.omp_threads, host.width.c_str(), host.fma_1c_gflops);
    std::fflush(stdout);

    set_tracing(opt.trace);
    Result w;
    {
      const Span span(Layer::kSuite, "workload");
      w = workloads().at(opt.workload)(opt, host);
    }
    host.fma_1c_after = measure_fma_1c();
    measure_bandwidth(host);
    Result out = w;
    if (opt.trace) {
      Result p;
      run_probes(opt, host, p);
      out.metrics = p.metrics;
      out.extras = w.metrics;
      out.extras.insert(out.extras.end(), w.extras.begin(), w.extras.end());
      out.extras.insert(out.extras.end(), p.extras.begin(), p.extras.end());
      out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
      out.gates.insert(out.gates.end(), p.gates.begin(), p.gates.end());
      out.attempted += p.attempted;
      out.failed += p.failed;
    }
    if (!benchmark_json.empty())
      check_names(out, benchmark_json, opt.trace ? "per_layer" : "end_to_end");

    if (host.drift())
      std::printf("host_drift: one-core FMA peak %.1f -> %.1f GFLOP/s (> 10 %%)\n",
                  host.fma_1c_gflops, host.fma_1c_after);

    const std::string stem = opt.out + "/results/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + (opt.trace ? "_trace" : "");
    std::string trace_path;
    if (opt.trace) trace_path = write_trace_outputs(opt, stem);
    write_file(stem + ".json", report_json(opt, host, out, trace_path));

    print_metrics(opt.trace ? "per-layer metrics:" : "end-to-end metrics:", out.metrics);
    print_metrics("extras:", out.extras);
    print_gates(out);
    std::printf("report: %s.json\n", stem.c_str());
    std::printf("%s\n", result_line(out).c_str());
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
