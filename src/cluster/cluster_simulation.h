// Cluster-layer simulation (paper Section 6): the global domain is split
// into cartesian subdomains, one per rank. Each rank runs a node-layer
// Simulation on its subgrid; ghost information crosses rank boundaries as
// six face-slab messages of three cell layers per Runge-Kutta stage. Blocks
// are split into halo and interior sets, and a step runs as ONE dependency
// graph on the shared StepScheduler (DESIGN.md §14) across the local ranks
// and all RK stages: a stage's halo sends post as soon as the boundary
// blocks' previous-stage updates land, interior blocks compute while the
// messages are "in flight", and each rank's drain gates its halo-block labs
// — the paper's overlap pipeline as a property of the graph, with no
// barrier inside the step. Every phase emits tracing spans (perf::Tracer)
// for per-rank aggregates and chrome://tracing export.
//
// Rank locality: the simulation drives exactly the ranks its transport
// declares local (Transport::local_ranks). On the default in-memory
// transport that is every rank — the historical all-in-one-process mode.
// Under tools/mpcf-run each process holds ONE rank over the shared-memory
// transport, and all cross-rank traffic (halos, gather/scatter, checkpoint,
// collective dump, DT reduction) moves through the transport; no code path
// touches a sibling rank's grid directly.
#pragma once

#include <memory>
#include <vector>

#include "cluster/sim_comm.h"
#include "cluster/topology.h"
#include "compression/compressor.h"
#include "core/simulation.h"
#include "io/retention.h"
#include "perf/trace.h"

namespace mpcf::cluster {

class ClusterSimulation {
 public:
  /// Global grid of gbx*gby*gbz blocks of bs^3 cells, decomposed across a
  /// topo.rx*topo.ry*topo.rz rank topology (block counts must divide evenly).
  /// Runs every rank in-process over the in-memory transport.
  ClusterSimulation(int gbx, int gby, int gbz, int bs, CartTopology topo,
                    Simulation::Params params);

  /// Same decomposition over an explicit transport; the simulation drives
  /// only transport->local_ranks() (one rank per process under mpcf-run).
  ClusterSimulation(int gbx, int gby, int gbz, int bs, CartTopology topo,
                    Simulation::Params params, std::shared_ptr<Transport> transport);

  [[nodiscard]] int rank_count() const noexcept { return topo_.size(); }
  /// The node-layer simulation of a LOCAL rank (throws for remote ranks:
  /// their state lives in another process).
  [[nodiscard]] Simulation& rank_sim(int r);
  [[nodiscard]] const Simulation& rank_sim(int r) const;
  /// Ranks driven by this process, ascending.
  [[nodiscard]] const std::vector<int>& local_ranks() const noexcept { return local_; }
  [[nodiscard]] bool is_local(int r) const noexcept { return comm_.is_local(r); }
  [[nodiscard]] const CartTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] SimComm& comm() noexcept { return comm_; }
  [[nodiscard]] double time() const noexcept { return time_; }

  /// Halo tag epoch: one per RK stage exchange (kStages per step) so a fast
  /// rank's sends can never alias a neighbour's undrained previous stage.
  /// Advances in lockstep on all ranks; deliberately NOT part of a
  /// checkpoint (a restart must not regress it).
  [[nodiscard]] long halo_epoch() const noexcept { return epoch_; }

  /// Phase tracer: disabled by default; enable to collect per-phase spans
  /// and export chrome://tracing JSON.
  [[nodiscard]] perf::Tracer& tracer() noexcept { return tracer_; }

  /// Global DT reduction: per-rank SOS maxima combined by an allreduce.
  [[nodiscard]] double compute_dt();

  void advance(double dt);
  double step();

  /// Copies the distributed state into a single global grid (shape must be
  /// gbx x gby x gbz blocks of the same block size). Multi-process: remote
  /// boxes are shipped to rank 0, so only the process owning rank 0 fills
  /// (and shape-checks) `global`; other processes only send their boxes.
  void gather(Grid& global) const;

  /// Inverse of gather: distributes a global grid across the rank subgrids.
  /// Multi-process: the process owning rank 0 reads `global` and ships each
  /// remote rank its box; other processes ignore their `global` argument.
  void scatter(const Grid& global);

  /// Checkpoints the gathered global state + cluster clock into one
  /// atomic, CRC-protected file (same format as the node layer; a cluster
  /// checkpoint restores into any topology of the same global shape).
  /// Multi-process: rank 0's process writes the file; the call is
  /// collective and every process returns the written byte count.
  std::uint64_t save_checkpoint(const std::string& path) const;

  /// Restores a checkpoint written by save_checkpoint (or the node layer's
  /// save_checkpoint of an identically shaped grid): scatters the state and
  /// restores every rank clock. Throws PreconditionError on any mismatch,
  /// truncation, or CRC failure. Multi-process: rank 0's process reads the
  /// file and broadcasts state + clock.
  void load_checkpoint(const std::string& path);

  /// Rotating retention: saves through `rot` at the current step count and
  /// prunes old files (keep-last-K). The save is traced as a kCheckpoint
  /// span. Returns the path written.
  std::string save_checkpoint_rotating(io::CheckpointRotator& rot);

  /// Auto-recovery: scans `rot` newest -> oldest and restores the first
  /// valid checkpoint, skipping corrupt/truncated files (reported through
  /// `skipped` and as one kCheckpoint trace span per attempt). Returns the
  /// recovered path, or "" when no valid checkpoint exists.
  std::string load_latest_valid_checkpoint(io::CheckpointRotator& rot,
                                           std::vector<std::string>* skipped = nullptr);

  /// Reduction of the per-rank diagnostics (collective in multi-process
  /// mode; every process returns the same global values).
  [[nodiscard]] Diagnostics diagnostics(double G_vapor, double G_liquid) const;

  /// Compresses one quantity across all ranks into a single dump whose
  /// streams carry global block ids; the streams land in the order given by
  /// the exclusive prefix sum of the per-rank encoded sizes — NOT rank
  /// completion order (collective dump, paper Section 6). Multi-process:
  /// remote ranks ship their streams to rank 0, whose process returns the
  /// assembled dump; other processes return only the header (no streams).
  [[nodiscard]] compression::CompressedQuantity compress_collective(
      const compression::CompressionParams& params,
      std::vector<compression::WorkerTimes>* times = nullptr);

  /// Collective dump straight to disk: compress_collective, then the
  /// two-phase aggregating `.cq` writer. Only the process holding rank 0
  /// writes; returns the bytes it wrote (0 elsewhere).
  std::uint64_t dump_collective(const std::string& path,
                                const compression::CompressionParams& params,
                                std::vector<compression::WorkerTimes>* times = nullptr);

  /// Aggregated kernel times across this process's local ranks.
  [[nodiscard]] StepProfile profile() const;
  /// Exposed communication stall: wall-clock the step loop blocks on halo
  /// exchange with no compute runnable. Staged oracle (fused_step = false):
  /// the full pack/send/recv/unpack of every RK stage. Fused step: zero by
  /// construction — packs and drains run as tasks inside the step graph,
  /// coexisting with runnable block tasks (see comm_work_time() for where
  /// the communication work went).
  [[nodiscard]] double comm_time() const noexcept { return comm_time_; }
  /// Thread-seconds spent doing communication work (pack/send/recv/unpack)
  /// regardless of schedule: equals comm_time() on the staged oracle, and
  /// the in-graph pack+drain task seconds on the fused step.
  [[nodiscard]] double comm_work_time() const noexcept { return comm_work_time_; }

  [[nodiscard]] const std::vector<int>& interior_blocks(int r) const {
    return interior_[r];
  }
  [[nodiscard]] const std::vector<int>& halo_blocks(int r) const { return halo_[r]; }

  /// One full sequential halo exchange (pack+send+drain for the local ranks;
  /// the staged oracle's per-stage exchange — exposed for tests and the
  /// communication benches). Collective: every process must call it the
  /// same number of times (each call is one epoch).
  void exchange_halos();

  /// Per-cell oracle of a LOCAL `rank`'s halo-block labs (tests only; the
  /// labs read the face slabs row by row): resolves one global cell
  /// coordinate through the global BCs and the halo slabs, and returns false
  /// when the cell is local-unfolded. Throws PreconditionError naming rank,
  /// axis and side when the slab it needs has not arrived.
  [[nodiscard]] bool fetch_remote(int rank, int gx, int gy, int gz, Cell& out) const;

 private:
  struct RankBox {
    int ox, oy, oz;  ///< origin in global cells
    int nx, ny, nz;  ///< extent in cells
  };

  /// Packs and sends one local rank's six face slabs (the paper's Isend
  /// phase) under halo tag epoch `epoch`.
  void pack_rank_sends(int r, long epoch);
  /// Receives and unpacks the six face slabs of one local rank for `epoch`.
  /// Drains via atomic try_recv in whatever order messages arrive (no
  /// fixed-face blocking order), falling back to a blocking recv — traced as
  /// a kWait span — only when nothing is deliverable.
  void drain_halos(int r, long epoch);
  void unpack_halo_slab(int r, int axis, int side, const std::vector<float>& msg);
  /// Fused step (DESIGN.md §14): one StepScheduler::run over the whole-step
  /// graph of all local ranks, pack/drain tasks included. Bitwise-identical
  /// to the staged oracle; the positivity guard and the SOS reduction fold
  /// into the final-stage updates, so the next compute_dt skips its sweep.
  void advance_fused(double dt);
  /// Lazily builds the whole-step graph over the local ranks.
  void ensure_step_graph();
  [[nodiscard]] const Simulation& front_sim() const { return *sims_[local_.front()]; }
  /// The global grid a checkpoint gathers into or scatters from: full size
  /// on the process holding rank 0, a one-cell placeholder on the others.
  [[nodiscard]] Grid checkpoint_grid() const;

  CartTopology topo_;
  mutable SimComm comm_;  ///< mutable: const collectives (gather, save) send
  int bs_;
  int gbx_, gby_, gbz_;
  BoundaryConditions global_bc_;
  std::vector<int> local_;  ///< comm_.local_ranks(); step-graph plan p is rank local_[p]
  /// Per rank: the kGhosts-layer cell slab outside each rank-box face that
  /// has a neighbour; each local rank's Simulation holds a pointer to its
  /// own (sized once in the constructor, declared before sims_ to outlive it).
  std::vector<HaloSlabs> halo_slabs_;
  std::vector<std::unique_ptr<Simulation>> sims_;  ///< null for remote ranks
  std::vector<RankBox> boxes_;
  std::vector<std::vector<int>> interior_, halo_;  ///< filled for local ranks
  perf::Tracer tracer_;
  std::unique_ptr<StepScheduler> sched_;        ///< whole-step graph
  std::vector<std::vector<char>> plan_is_halo_;  ///< per plan: tile -> halo tile?
  double time_ = 0;
  double comm_time_ = 0;
  double comm_work_time_ = 0;
  long steps_ = 0;
  long epoch_ = 0;  ///< halo tag epoch (one per RK stage exchange)
};

}  // namespace mpcf::cluster
