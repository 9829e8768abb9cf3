// Google-benchmark microbenchmarks of the core kernels and primitives —
// finer-grained companions to the table benches, useful for regression
// tracking of the hot paths. Every vectorized stage is measured at both
// SIMD widths (vec4 and, where the host executes it, vec8), and the lab
// assembly is measured on both paths (per-cell fetch vs bulk).
//
// `--json [path]` switches to a machine-readable mode: a compact timing
// sweep written as JSON (default BENCH_kernels.json), GFLOP/s per
// stage x width x impl plus the lab-assembly comparison.
#include <benchmark/benchmark.h>
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "grid/lab.h"
#include "lab_oracle.h"  // tests/: the per-cell lab oracle
#include "kernels/hlle.h"
#include "kernels/sos.h"
#include "kernels/update.h"
#include "kernels/weno.h"
#include "simd/dispatch.h"
#include "wavelet/interp_wavelet.h"

namespace {

using namespace mpcf;
using namespace mpcf::kernels;

constexpr int kBs = 32;

struct BlockFixture {
  Grid grid{2, 2, 2, kBs, 1e-3};
  BlockLab lab;
  RhsWorkspace ws;
  BlockFixture() {
    mpcf::bench::init_cloud_state(grid);
    lab.resize(kBs);
    ws.resize(kBs);
    lab.load(grid, 0, 0, 0, BoundaryConditions::all(BCType::kAbsorbing));
  }
};

BlockFixture& fixture() {
  static BlockFixture f;
  return f;
}

bool vec8_usable() { return simd::host_executes(simd::Width::kW8); }

void rhs_bench(benchmark::State& state, KernelImpl impl, simd::Width width) {
  if (width == simd::Width::kW8 && !vec8_usable()) {
    state.SkipWithError("host cannot execute the vec8 backend");
    return;
  }
  auto& f = fixture();
  for (auto _ : state)
    rhs_block(f.lab, static_cast<Real>(f.grid.h()), 0.0f, f.grid.block(0), f.ws,
              impl, 5, width);
  state.counters["GFLOP/s"] =
      benchmark::Counter(rhs_flops(kBs) * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}

void BM_RhsScalar(benchmark::State& state) {
  rhs_bench(state, KernelImpl::kScalar, simd::Width::kScalar);
}
BENCHMARK(BM_RhsScalar)->Unit(benchmark::kMillisecond);

void BM_RhsSimdStagedW4(benchmark::State& state) {
  rhs_bench(state, KernelImpl::kSimd, simd::Width::kW4);
}
BENCHMARK(BM_RhsSimdStagedW4)->Unit(benchmark::kMillisecond);

void BM_RhsSimdStagedW8(benchmark::State& state) {
  rhs_bench(state, KernelImpl::kSimd, simd::Width::kW8);
}
BENCHMARK(BM_RhsSimdStagedW8)->Unit(benchmark::kMillisecond);

void BM_RhsSimdFusedW4(benchmark::State& state) {
  rhs_bench(state, KernelImpl::kSimdFused, simd::Width::kW4);
}
BENCHMARK(BM_RhsSimdFusedW4)->Unit(benchmark::kMillisecond);

void BM_RhsSimdFusedW8(benchmark::State& state) {
  rhs_bench(state, KernelImpl::kSimdFused, simd::Width::kW8);
}
BENCHMARK(BM_RhsSimdFusedW8)->Unit(benchmark::kMillisecond);

void BM_SosScalar(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(block_max_speed(f.grid.block(0)));
}
BENCHMARK(BM_SosScalar)->Unit(benchmark::kMicrosecond);

void BM_SosSimdW4(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(block_max_speed_simd(f.grid.block(0), simd::Width::kW4));
}
BENCHMARK(BM_SosSimdW4)->Unit(benchmark::kMicrosecond);

void BM_SosSimdW8(benchmark::State& state) {
  if (!vec8_usable()) {
    state.SkipWithError("host cannot execute the vec8 backend");
    return;
  }
  auto& f = fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(block_max_speed_simd(f.grid.block(0), simd::Width::kW8));
}
BENCHMARK(BM_SosSimdW8)->Unit(benchmark::kMicrosecond);

void BM_UpdateW4(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) update_block_simd(f.grid.block(0), 1e-12f, simd::Width::kW4);
}
BENCHMARK(BM_UpdateW4)->Unit(benchmark::kMicrosecond);

void BM_UpdateW8(benchmark::State& state) {
  if (!vec8_usable()) {
    state.SkipWithError("host cannot execute the vec8 backend");
    return;
  }
  auto& f = fixture();
  for (auto _ : state) update_block_simd(f.grid.block(0), 1e-12f, simd::Width::kW8);
}
BENCHMARK(BM_UpdateW8)->Unit(benchmark::kMicrosecond);

void BM_LabLoadBulk(benchmark::State& state) {
  auto& f = fixture();
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  for (auto _ : state) f.lab.load(f.grid, 0, 0, 0, bc);
}
BENCHMARK(BM_LabLoadBulk)->Unit(benchmark::kMicrosecond);

void BM_LabLoadPerCell(benchmark::State& state) {
  auto& f = fixture();
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  for (auto _ : state)
    lab_oracle::load_per_cell(f.lab, f.grid, 0, 0, 0, 1, [&](int ix, int iy, int iz) {
      return f.grid.cell_folded(ix, iy, iz, bc);
    });
}
BENCHMARK(BM_LabLoadPerCell)->Unit(benchmark::kMicrosecond);

void BM_Weno5(benchmark::State& state) {
  float q[8] = {1.0f, 1.2f, 0.9f, 1.5f, 1.1f, 0.8f, 1.3f, 1.0f};
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        weno5_minus(q[i & 3], q[(i + 1) & 7], q[(i + 2) & 7], q[(i + 3) & 7],
                    q[(i + 4) & 7]));
    ++i;
  }
}
BENCHMARK(BM_Weno5);

void BM_Fwt32(benchmark::State& state) {
  Field3D<float> cube(32, 32, 32);
  for (int iz = 0; iz < 32; ++iz)
    for (int iy = 0; iy < 32; ++iy)
      for (int ix = 0; ix < 32; ++ix)
        cube(ix, iy, iz) = static_cast<float>(std::sin(0.2 * ix) + 0.1 * iy);
  for (auto _ : state) wavelet::forward_3d_simd(cube.view(), 3);
}
BENCHMARK(BM_Fwt32)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json mode: a self-contained timing sweep, written as one JSON document.

double time_reps(int reps, const std::function<void()>& body) {
  body();  // warm up caches and page in the working set
  return mpcf::bench::time_best_of([&] {
    for (int i = 0; i < reps; ++i) body();
  }, 5) / reps;
}

int write_json(const char* path) {
  auto& f = fixture();
  const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
  const bool w8 = vec8_usable();

  struct Entry {
    const char* stage;
    const char* impl;
    int width;
    double gflops;
  };
  std::vector<Entry> entries;

  auto rhs_gf = [&](KernelImpl impl, simd::Width w) {
    const double sec = time_reps(4, [&] {
      rhs_block(f.lab, static_cast<Real>(f.grid.h()), 0.0f, f.grid.block(0), f.ws,
                impl, 5, w);
    });
    return rhs_flops(kBs) / sec / 1e9;
  };
  entries.push_back({"rhs", "scalar", 1, rhs_gf(KernelImpl::kScalar, simd::Width::kScalar)});
  entries.push_back({"rhs", "staged", 4, rhs_gf(KernelImpl::kSimd, simd::Width::kW4)});
  entries.push_back({"rhs", "fused", 4, rhs_gf(KernelImpl::kSimdFused, simd::Width::kW4)});
  if (w8) {
    entries.push_back({"rhs", "staged", 8, rhs_gf(KernelImpl::kSimd, simd::Width::kW8)});
    entries.push_back({"rhs", "fused", 8, rhs_gf(KernelImpl::kSimdFused, simd::Width::kW8)});
  }

  volatile double sink = 0;
  auto sos_gf = [&](simd::Width w) {
    const double sec = time_reps(64, [&] {
      sink = block_max_speed_simd(f.grid.block(0), w);
    });
    return sos_flops(kBs) / sec / 1e9;
  };
  {
    const double sec = time_reps(64, [&] { sink = block_max_speed(f.grid.block(0)); });
    entries.push_back({"sos", "scalar", 1, sos_flops(kBs) / sec / 1e9});
  }
  entries.push_back({"sos", "simd", 4, sos_gf(simd::Width::kW4)});
  if (w8) entries.push_back({"sos", "simd", 8, sos_gf(simd::Width::kW8)});
  (void)sink;

  auto up_gf = [&](simd::Width w) {
    const double sec = time_reps(64, [&] {
      update_block_simd(f.grid.block(0), 1e-12f, w);
    });
    return update_flops(kBs) / sec / 1e9;
  };
  entries.push_back({"update", "simd", 1, up_gf(simd::Width::kScalar)});
  entries.push_back({"update", "simd", 4, up_gf(simd::Width::kW4)});
  if (w8) entries.push_back({"update", "simd", 8, up_gf(simd::Width::kW8)});
  const UpdateChoice auto_choice = update_auto_choice(kBs, simd::Width::kAuto);

  const double lab_cell_s = time_reps(16, [&] {
    lab_oracle::load_per_cell(f.lab, f.grid, 0, 0, 0, 1, [&](int ix, int iy, int iz) {
      return f.grid.cell_folded(ix, iy, iz, bc);
    });
  });
  const double lab_bulk_s = time_reps(16, [&] { f.lab.load(f.grid, 0, 0, 0, bc); });

  // mpcf-lint: allow(raw-io): bench JSON report; SafeFile atomicity is pointless for a rewritable artifact
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"kernels_micro\",\n");
  std::fprintf(out, "  \"block_size\": %d,\n", kBs);
  std::fprintf(out, "  \"dispatch_width\": \"%s\",\n",
               simd::width_name(simd::dispatch_width()));
  // Core count of the measuring host: single-core datapoints say nothing
  // about the multi-threaded step schedules, so consumers must check this.
  std::fprintf(out, "  \"cores\": %d,\n", omp_get_num_procs());
  std::fprintf(out, "  \"single_core\": %s,\n", omp_get_num_procs() == 1 ? "true" : "false");
  std::fprintf(out, "  \"update_auto\": {\"width\": %d},\n", simd::lanes(auto_choice.width));
  std::fprintf(out, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i)
    std::fprintf(out,
                 "    {\"stage\": \"%s\", \"impl\": \"%s\", \"width\": %d, "
                 "\"gflops\": %.3f}%s\n",
                 entries[i].stage, entries[i].impl, entries[i].width, entries[i].gflops,
                 i + 1 < entries.size() ? "," : "");
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"lab_assembly\": {\"per_cell_us\": %.2f, \"bulk_us\": %.2f, "
               "\"speedup\": %.2f}\n",
               lab_cell_s * 1e6, lab_bulk_s * 1e6, lab_cell_s / lab_bulk_s);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* path =
          (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : "BENCH_kernels.json";
      return write_json(path);
    }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
