// Cluster-layer walkthrough: the same cloud-collapse problem decomposed
// across 8 simulated ranks (2x2x2 cartesian topology), demonstrating the
// paper's cluster-layer machinery end to end — halo exchange (6 face-slab
// messages per rank per RK stage), the halo/interior block split, the
// allreduce time step, reduced diagnostics, and the collective compressed
// dump with global block ids.
//
// Transport selection comes from the environment (make_env_transport): run
// directly for the historical all-ranks-in-one-process mode, or through the
// launcher for one process per rank over shared memory:
//
//   ./example_cluster_demo [steps]
//   mpcf-run -n 8 ./example_cluster_demo [steps]
#include <cstdio>
#include <cstdlib>

#include "cluster/cluster_simulation.h"
#include "eos/stiffened_gas.h"
#include "io/compressed_file.h"
#include "workload/cloud.h"

int main(int argc, char** argv) {
  using namespace mpcf;
  using namespace mpcf::cluster;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 60;

  Simulation::Params params;
  params.extent = 1e-3;
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params,
                       make_env_transport(8));  // 32^3 cells
  const bool root = cs.is_local(0);

  // Initialize via a staging grid (read on the root process), then scatter.
  Grid staging(4, 4, 4, 8, params.extent);
  if (root) {
    std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                                {0.65e-3, 0.45e-3, 0.55e-3, 0.1e-3}};
    set_cloud_ic(staging, bubbles, TwoPhaseIC{});
  }
  cs.scatter(staging);

  const int r0 = cs.local_ranks().front();
  if (root)
    std::printf("# %d ranks (2x2x2), %zu local; per rank: %d blocks (%zu halo, "
                "%zu interior)\n",
                cs.rank_count(), cs.local_ranks().size(),
                cs.rank_sim(r0).grid().block_count(), cs.halo_blocks(r0).size(),
                cs.interior_blocks(r0).size());

  const double Gv = materials::kVapor.Gamma(), Gl = materials::kLiquid.Gamma();
  for (int s = 0; s < steps; ++s) {
    cs.step();
    if ((s + 1) % 20 == 0) {
      const auto d = cs.diagnostics(Gv, Gl);
      if (root)
        std::printf("step %4d  t=%.3f us  max_p=%.1f bar  r_eq=%.1f um\n", s + 1,
                    cs.time() * 1e6, d.max_p_field / 1e5, d.equivalent_radius * 1e6);
    }
  }

  const auto& stats = cs.comm().stats();
  if (root) {
    std::printf("\n# transport: %llu messages, %.2f MB total, %llu collectives "
                "(this process)\n",
                static_cast<unsigned long long>(stats.messages), stats.bytes / 1e6,
                static_cast<unsigned long long>(stats.collectives));
    std::printf("# comm: %.3f s exposed stall, %.3f s work (pack/drain tasks "
                "inside the step graph hide it) vs compute %.3f s\n",
                cs.comm_time(), cs.comm_work_time(), cs.profile().total());
  }

  // Collective dump: one file for the whole distributed field; every rank
  // encodes its blocks, the root process writes them. The rate is read back
  // from the file.
  compression::CompressionParams cg;
  cg.quantity = Q_G;
  cg.eps = 2.3e-3f;
  (void)cs.dump_collective("/tmp/cluster_demo_G.cq", cg);
  if (root)
    std::printf("# collective Gamma dump: rate %.1f:1 -> /tmp/cluster_demo_G.cq\n",
                io::read_compressed("/tmp/cluster_demo_G.cq").compression_rate());
  return 0;
}
