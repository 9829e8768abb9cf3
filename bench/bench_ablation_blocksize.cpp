// Ablation: block size (paper outlook — "more investigations are necessary
// to identify optimal block sizes for future systems"). Larger blocks
// amortize the ghost overhead ((bs+6)^3 / bs^3 lab inflation) but stress the
// cache; smaller blocks schedule more flexibly. Measures RHS throughput and
// the lab-load share per block size.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "grid/lab.h"
#include "perf/microbench.h"

using namespace mpcf;
using namespace mpcf::kernels;

int main() {
  std::puts("=== Ablation: block size ===");
  std::printf("%-12s %14s %12s %12s %14s %12s\n", "bs", "ghost overhd", "RHS GFLOP/s",
              "ns/cell", "lab load [us]", "lab share");
  // bs 8 twice: per block, then as the fused step's 16^3 tiles of 2^3
  // blocks (k = 2), which evaluate 16^3 labs over 8^3 storage.
  for (const auto& [bs, k] : {std::pair{8, 1}, std::pair{8, 2}, std::pair{16, 1},
                             std::pair{32, 1}}) {
    // Same total cell count (32^3) for every block size.
    const int nb = 32 / bs, edge = k * bs;
    Grid grid(nb, nb, nb, bs, 1e-3);
    mpcf::bench::init_cloud_state(grid);
    BlockLab lab;
    lab.resize(edge);
    RhsWorkspace ws;
    ws.resize(edge);
    const auto bc = BoundaryConditions::all(BCType::kAbsorbing);
    const int units = grid.block_count() / (k * k * k);
    const auto for_units = [&](auto&& body) {
      for (int z = 0; z < nb; z += k)
        for (int y = 0; y < nb; y += k)
          for (int x = 0; x < nb; x += k) body(x, y, z);
    };

    const double t_lab = mpcf::bench::time_best_of([&] {
      for_units([&](int x, int y, int z) { lab.load(grid, x, y, z, bc, nullptr, k); });
    });
    std::vector<Block*> blocks;
    const double t_rhs = mpcf::bench::time_best_of([&] {
      for_units([&](int x, int y, int z) {
        lab.load(grid, x, y, z, bc, nullptr, k);
        blocks.clear();
        for (int jz = 0; jz < k; ++jz)
          for (int jy = 0; jy < k; ++jy)
            for (int jx = 0; jx < k; ++jx) blocks.push_back(&grid.block(x + jx, y + jy, z + jz));
        rhs_tile(lab, static_cast<Real>(grid.h()), 0.0f, blocks.data(), k, ws);
      });
    });
    const double n = edge + 2.0 * kGhosts;
    const double overhead = n * n * n / (double(edge) * edge * edge);
    const double flops = rhs_flops(edge) * units;
    const std::string label = k == 1 ? std::to_string(bs) : "8 (16^3 tile)";
    std::printf("%-12s %13.2fx %12.2f %12.1f %14.1f %11.0f%%\n", label.c_str(), overhead,
                flops / t_rhs / 1e9, t_rhs / grid.cell_count() * 1e9,
                t_lab / units * 1e6, 100.0 * t_lab / t_rhs);
  }
  std::puts("\npaper uses 32^3 blocks: the ghost-overhead factor drops from");
  std::puts("5.4x (bs=8) to 1.7x (bs=32) while the per-thread working set");
  std::puts("still fits the cache hierarchy of the BQC. The fused step runs");
  std::puts("bs=8 grids as 16^3 tiles: the 16^3 lab and RHS over 8^3 storage.");
  return 0;
}
