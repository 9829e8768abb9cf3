// Per-cell reference assembly of a BlockLab: the differential oracle the
// bulk load (BlockLab::load) is tested against. Every interior cell of the
// tile of k^3 blocks from block (bx,by,bz) — k = 1 is that block alone —
// comes straight from the grid, and every ghost cell through
// `fetch(gx, gy, gz) -> Cell` at global cell coordinates: BC folds
// (Grid::cell_folded) on the node layer, ClusterSimulation::fetch_remote
// on a cluster rank. Slow by design; bench_kernels_micro times it against
// the bulk path.
#pragma once

#include <concepts>

#include "grid/grid.h"
#include "grid/lab.h"

namespace mpcf::lab_oracle {

template <typename Fetch>
  requires std::invocable<Fetch&, int, int, int>
void load_per_cell(BlockLab& lab, const Grid& grid, int bx, int by, int bz, int k,
                   Fetch&& fetch) {
  const int bs = grid.block_size(), e = k * bs, g = lab.ghosts();
  lab.shape(e);
  const int ox = bx * bs, oy = by * bs, oz = bz * bs;
  for (int iz = -g; iz < e + g; ++iz)
    for (int iy = -g; iy < e + g; ++iy)
      for (int ix = -g; ix < e + g; ++ix) {
        const bool interior = ix >= 0 && ix < e && iy >= 0 && iy < e && iz >= 0 && iz < e;
        const Cell c = interior ? grid.cell(ox + ix, oy + iy, oz + iz)
                                : fetch(ox + ix, oy + iy, oz + iz);
        for (int q = 0; q < kNumQuantities; ++q) lab(q, ix, iy, iz) = c.q(q);
      }
}

}  // namespace mpcf::lab_oracle
