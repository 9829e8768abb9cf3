// Rank worker used by the multi-process transport tests: runs a small cloud
// collapse over whatever transport the environment selects and checkpoints
// the final distributed state. Run directly it is the single-process
// reference (every rank in-process over the in-memory transport); run under
// tools/mpcf-run it is one rank of N talking over shared memory. The test
// asserts the two checkpoints are bitwise identical.
//
//   mpcf_rank_worker --topo RX,RY,RZ --blocks GX,GY,GZ [--bs B] [--steps S]
//                    [--load FILE] [--out FILE] [--die RANK] [--staged]
//
// --load FILE restores the state and clock from a checkpoint of any
// topology instead of setting the initial condition. A rejected load or a
// failed save fails every rank (exit 1), each naming its rank on stderr.
//
// --staged runs the staged oracle (fused_step = false: a sequential halo
// exchange per RK stage, blocking recv included) instead of the fused step
// graph.
//
// --die RANK makes the process owning RANK _exit(3) after the first step:
// the peers must then fail with a diagnosed TransportError (exit 4), never
// hang — that is the dead-rank contract under test.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cluster/cluster_simulation.h"
#include "cluster/transport.h"
#include "eos/stiffened_gas.h"
#include "workload/cloud.h"

namespace {

bool parse_triple(const char* s, int out[3]) {
  return std::sscanf(s, "%d,%d,%d", &out[0], &out[1], &out[2]) == 3;
}

int usage() {
  std::fprintf(stderr,
               "usage: mpcf_rank_worker --topo RX,RY,RZ --blocks GX,GY,GZ "
               "[--bs B] [--steps S] [--load FILE] [--out FILE] [--die RANK] [--staged]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpcf;
  using namespace mpcf::cluster;

  int topo[3] = {0, 0, 0}, blocks[3] = {0, 0, 0};
  int bs = 8, steps = 3, die_rank = -1;
  bool staged = false;
  std::string load, out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--topo" && val && parse_triple(val, topo)) {
      ++i;
    } else if (arg == "--blocks" && val && parse_triple(val, blocks)) {
      ++i;
    } else if (arg == "--bs" && val) {
      bs = std::atoi(argv[++i]);
    } else if (arg == "--steps" && val) {
      steps = std::atoi(argv[++i]);
    } else if (arg == "--load" && val) {
      load = argv[++i];
    } else if (arg == "--out" && val) {
      out = argv[++i];
    } else if (arg == "--die" && val) {
      die_rank = std::atoi(argv[++i]);
    } else if (arg == "--staged") {
      staged = true;
    } else {
      return usage();
    }
  }
  const int nranks = topo[0] * topo[1] * topo[2];
  if (nranks <= 0 || blocks[0] <= 0 || blocks[1] <= 0 || blocks[2] <= 0)
    return usage();

  std::string who = "rank ?";  // this process's ranks, for error lines
  try {
    Simulation::Params params;
    params.extent = 1e-3;
    params.fused_step = !staged;
    ClusterSimulation cs(blocks[0], blocks[1], blocks[2], bs,
                         CartTopology(topo[0], topo[1], topo[2]), params,
                         make_env_transport(nranks));
    who = "rank";
    for (const int r : cs.local_ranks()) who.append(1, ' ').append(std::to_string(r));

    // A collective load or save that fails, fails on every rank: each
    // names its reason below and exits 1.
    if (!load.empty()) {
      cs.load_checkpoint(load);
    } else if (cs.is_local(0)) {
      // Deterministic two-bubble IC, staged on the root process and
      // scattered; the other processes only receive their boxes.
      Grid staging(blocks[0], blocks[1], blocks[2], bs, params.extent);
      std::vector<Bubble> bubbles{{0.4e-3, 0.5e-3, 0.5e-3, 0.15e-3},
                                  {0.65e-3, 0.45e-3, 0.55e-3, 0.1e-3}};
      set_cloud_ic(staging, bubbles, TwoPhaseIC{});
      cs.scatter(staging);
    } else {
      cs.scatter(Grid(1, 1, 1, 1, params.extent));
    }

    const bool die_here = die_rank >= 0 && cs.is_local(die_rank);
    for (int s = 0; s < steps; ++s) {
      cs.step();
      if (die_here) ::_exit(3);  // simulated rank crash, mid-run
    }

    if (!out.empty()) (void)cs.save_checkpoint(out);
  } catch (const TransportError& e) {
    std::fprintf(stderr, "mpcf_rank_worker (%s): transport error: %s\n", who.c_str(),
                 e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcf_rank_worker (%s): %s\n", who.c_str(), e.what());
    return 1;
  }
  return 0;
}
