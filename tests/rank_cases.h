// The rank topologies and boundary conditions every multi-rank bitwise test
// covers: RankEquivalenceTest (test_cluster) steps each one against the
// single-rank solution, and the slab-lab oracle test (test_lab_assembly)
// compares every lab cell of each one against fetch_remote.
#pragma once

#include <ostream>
#include <vector>

#include "grid/boundary.h"

namespace mpcf::testing_cases {

struct RankCase {
  int rx, ry, rz;         ///< rank topology
  BoundaryConditions bc;  ///< global boundary conditions
  int bs;                 ///< block size (the global grid is 4^3 blocks)
};

inline std::ostream& operator<<(std::ostream& os, const RankCase& c) {
  return os << c.rx << "x" << c.ry << "x" << c.rz << " ranks, bs " << c.bs;
}

inline std::vector<RankCase> rank_cases() {
  const auto all = [](BCType t) { return BoundaryConditions::all(t); };
  // cluster_weak's shape: 2x2x1 ranks, absorbing but for a wall at z-low,
  // 16^3 blocks.
  BoundaryConditions wall_z_lo = all(BCType::kAbsorbing);
  wall_z_lo.face[2][0] = BCType::kWall;
  return {{2, 1, 1, all(BCType::kAbsorbing), 8}, {1, 2, 1, all(BCType::kAbsorbing), 8},
          {1, 1, 2, all(BCType::kAbsorbing), 8}, {2, 2, 2, all(BCType::kAbsorbing), 8},
          {2, 1, 1, all(BCType::kPeriodic), 8},  {2, 2, 2, all(BCType::kPeriodic), 8},
          {4, 1, 1, all(BCType::kPeriodic), 8},  {2, 2, 1, all(BCType::kWall), 8},
          {2, 2, 1, wall_z_lo, 16}};
}

}  // namespace mpcf::testing_cases
