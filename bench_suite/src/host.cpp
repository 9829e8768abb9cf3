#include "host.h"

#include <omp.h>
#include <unistd.h>

#include <cmath>
#include <thread>

#include "perf/microbench.h"
#include "report.h"
#include "simd/dispatch.h"

namespace mpcf::bench_suite {
namespace {

double fma_all_threads() {
  double total = 0;
#pragma omp parallel reduction(+ : total)
  total += perf::measure_peak_gflops(0.2);
  return total;
}

}  // namespace

double measure_fma_1c() { return perf::measure_peak_gflops(0.2); }

bool Host::drift() const {
  return fma_1c_gflops > 0 && fma_1c_after > 0 &&
         std::fabs(fma_1c_after / fma_1c_gflops - 1.0) > 0.10;
}

Host measure_host(const Options& opt) {
  Host h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  h.omp_threads = omp_get_max_threads();
  h.width = simd::width_name(simd::dispatch_width());
  h.compiler = BENCH_SUITE_CXX;
  h.flags = BENCH_SUITE_FLAGS;
  h.git_sha = opt.git_sha;
  h.source_id = opt.source_id;
  h.llc_bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.l2_bytes_per_core = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.fma_1c_gflops = measure_fma_1c();
  h.fma_all_gflops = fma_all_threads();
  return h;
}

void measure_bandwidth(Host& h) { h.triad_gbs = perf::measure_bandwidth_gbs(0.2); }

std::string Host::json() const {
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(nproc);
  s += ",\"omp_threads\":" + std::to_string(omp_threads);
  s += ",\"simd_width\":" + jstr(width);
  s += ",\"compiler\":" + jstr(compiler);
  s += ",\"flags\":" + jstr(flags);
  s += ",\"git_sha\":" + jstr(git_sha);
  s += ",\"source_id\":" + jstr(source_id);
  s += ",\"llc_bytes\":" + std::to_string(llc_bytes);
  s += ",\"l2_bytes_per_core\":" + std::to_string(l2_bytes_per_core);
  s += ",\"l2_bytes_total\":" + std::to_string(l2_bytes_per_core * nproc);
  s += ",\"fma_peak_1c_gflops\":" + jnum(fma_1c_gflops);
  s += ",\"fma_peak_all_gflops\":" + jnum(fma_all_gflops);
  s += ",\"triad_gbs\":" + jnum(triad_gbs);
  // perf::measure_bandwidth_gbs streams three arrays of 2^24 floats.
  s += ",\"triad_bytes\":" + std::to_string(3L * (1L << 24) * 4);
  s += ",\"fma_peak_1c_after_gflops\":" + jnum(fma_1c_after);
  s += std::string(",\"host_drift\":") + (drift() ? "true" : "false");
  s += "}";
  return s;
}

}  // namespace mpcf::bench_suite
