#include "core/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/chunk_loop.h"

namespace mpcf {

namespace {

double cell_pressure(const Cell& c) {
  const double ke =
      0.5 * (double(c.ru) * c.ru + double(c.rv) * c.rv + double(c.rw) * c.rw) / c.rho;
  return (c.E - ke - c.P) / c.G;
}

}  // namespace

Diagnostics compute_diagnostics(const Grid& grid, const BoundaryConditions& bc,
                                double G_vapor, double G_liquid) {
  Diagnostics d;
  const double dV = grid.h() * grid.h() * grid.h();
  const int nx = grid.cells_x(), ny = grid.cells_y(), nz = grid.cells_z();
  const double inv_dG = 1.0 / (G_vapor - G_liquid);

  // Each z-plane sums its cells in a fixed order into its own slot, and the
  // slots are combined in plane order below, so the sums are bitwise the
  // same at every thread count and schedule. The maxima start at 0 and
  // never take a NaN, so their combination order does not matter.
  struct Sums {
    double ke = 0, E = 0, mass = 0, vap = 0, max_p = 0, max_pw = 0;
  };
  std::vector<Sums> planes(static_cast<std::size_t>(nz));

  for_each_chunk(nz, [&](int iz, int) {
    Sums s;
    for (int iy = 0; iy < ny; ++iy)
      for (int ix = 0; ix < nx; ++ix) {
        const Cell& c = grid.cell(ix, iy, iz);
        const double p = cell_pressure(c);
        s.max_p = std::max(s.max_p, p);
        const double cke =
            0.5 * (double(c.ru) * c.ru + double(c.rv) * c.rv + double(c.rw) * c.rw) / c.rho;
        s.ke += cke * dV;
        s.E += double(c.E) * dV;
        s.mass += double(c.rho) * dV;
        const double alpha = std::clamp((double(c.G) - G_liquid) * inv_dG, 0.0, 1.0);
        s.vap += alpha * dV;

        // Wall pressure: cells adjacent to a reflecting face.
        const bool on_wall =
            (ix == 0 && bc.face[0][0] == BCType::kWall) ||
            (ix == nx - 1 && bc.face[0][1] == BCType::kWall) ||
            (iy == 0 && bc.face[1][0] == BCType::kWall) ||
            (iy == ny - 1 && bc.face[1][1] == BCType::kWall) ||
            (iz == 0 && bc.face[2][0] == BCType::kWall) ||
            (iz == nz - 1 && bc.face[2][1] == BCType::kWall);
        if (on_wall) s.max_pw = std::max(s.max_pw, p);
      }
    planes[static_cast<std::size_t>(iz)] = s;
  });

  Sums total;
  for (const Sums& s : planes) {
    total.ke += s.ke;
    total.E += s.E;
    total.mass += s.mass;
    total.vap += s.vap;
    total.max_p = std::max(total.max_p, s.max_p);
    total.max_pw = std::max(total.max_pw, s.max_pw);
  }
  d.max_p_field = total.max_p;
  d.max_p_wall = total.max_pw;
  d.kinetic_energy = total.ke;
  d.total_energy = total.E;
  d.mass = total.mass;
  d.vapor_volume = total.vap;
  d.equivalent_radius = std::cbrt(3.0 * total.vap / (4.0 * M_PI));
  return d;
}

}  // namespace mpcf
