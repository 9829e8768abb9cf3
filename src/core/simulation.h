// Node-layer simulation driver (paper Section 6): owns one rank's grid,
// schedules block work across thread_count() worker threads (dynamic
// scheduling, parallel granularity of one block — or of one 16^3 tile of
// small blocks in the fused step — with per-thread ghost buffers) and
// advances the solution with the third-order low-storage TVD Runge-Kutta
// scheme (Williamson, ref [80]) at CFL 0.3. The workers are those of
// common/chunk_loop.h.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/diagnostics.h"
#include "core/profile.h"
#include "core/step_scheduler.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "grid/lab.h"
#include "kernels/rhs.h"

namespace mpcf {

/// Williamson low-storage RK3 coefficients.
struct LsRk3 {
  static constexpr int kStages = 3;
  static constexpr double a[kStages] = {0.0, -5.0 / 9.0, -153.0 / 128.0};
  static constexpr double b[kStages] = {1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0};
};

/// Edge in cells of the fused step's task unit on small-block grids: the
/// block size at which a ghost-extended lab stops dominating the RHS
/// (DESIGN.md §14).
inline constexpr int kTileEdge = 16;

/// Blocks per tile edge of the fused step on a grid of nx*ny*nz blocks of
/// edge bs: k = kTileEdge / bs when bs is 8 and k divides every block
/// count, so one lab/RHS/update task covers k^3 blocks; otherwise 1, one
/// task per block.
[[nodiscard]] int tile_blocks(int bs, int nx, int ny, int nz) noexcept;

class Simulation {
 public:
  struct Params {
    double cfl = 0.3;
    double extent = 1.0;  ///< domain x-extent [m]
    BoundaryConditions bc = BoundaryConditions::all(BCType::kAbsorbing);
    kernels::KernelImpl impl = kernels::KernelImpl::kSimdFused;
    /// Vector width of the kSimd*/kSimdFused kernels: kAuto picks the widest
    /// backend the build + host support (env MPCF_SIMD_WIDTH overrides).
    simd::Width width = simd::Width::kAuto;
    int weno_order = 5;  ///< 5 = production WENO5; 3 = low-order ablation
    /// Positivity guard applied after each step: floors for density and
    /// pressure keep marginally-resolved collapses (few cells per radius)
    /// from going NaN. The paper runs at 50+ points per radius and does not
    /// need this; at reproduction scale we do. Set floors <= 0 to disable.
    double rho_floor = 1e-3;
    double p_floor = 1.0;
    /// Cells clamped so far (written by advance; diagnostic only).
    long clamped_cells = 0;
    /// Fused step pipeline (DESIGN.md §14): dependency-scheduled
    /// lab->RHS->update tasks, one per block or per tile of blocks
    /// (tile_blocks), with the positivity guard and the SOS reduction folded
    /// into the final-stage updates, bitwise-identical to the staged sweeps.
    /// Off = the barrier-separated per-block staged schedule (kept as the
    /// conformance oracle).
    bool fused_step = true;
  };

  Simulation(int bx, int by, int bz, int bs, Params params);
  Simulation(int bx, int by, int bz, int bs);  // default Params

  [[nodiscard]] Grid& grid() noexcept { return grid_; }
  [[nodiscard]] const Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] double time() const noexcept { return time_; }
  [[nodiscard]] long step_count() const noexcept { return profile_.steps; }

  /// Restores the simulation clock (used by checkpoint restart). Also drops
  /// any folded step vmax: restart state invalidates it.
  void restore_clock(double time, long steps) noexcept {
    time_ = time;
    profile_.steps = steps;
    invalidate_speed_cache();
  }
  /// Counts one step of size dt on the clock. The cluster layer ticks its
  /// ranks' clocks with its own, so their state checks name the step.
  void advance_clock(double dt) noexcept {
    time_ += dt;
    ++profile_.steps;
  }

  /// DT kernel: global reduction of the maximum characteristic velocity.
  [[nodiscard]] double compute_dt();

  /// Advances one step of the given size (three RK stages).
  void advance(double dt);

  /// compute_dt + advance; returns the dt taken.
  double step();

  /// Cluster layer: the rank's face slabs, read by the labs of blocks on a
  /// rank face that has a neighbour (BlockLab::load). They must outlive
  /// every later lab assembly; null (the default) is the node layer.
  void set_halo_slabs(const HaloSlabs* halo) noexcept { halo_ = halo; }

  /// The staged sweeps of RK stage `stage` (the reference oracle of the
  /// fused step, at both layers): the RHS of every block, then the update
  /// of every block for a step of size dt. Each ends with the MPCF_CHECKED
  /// scan of what it wrote (verify_state).
  void rhs_sweep(int stage);
  void update_sweep(int stage, double dt);

  /// Grows the per-thread lab/workspace arrays to thread_count(), each
  /// holding one block — or, with `tiles`, one tile, the fused step's
  /// unit. Buffers only grow, so a tile-sized lab also serves block loads,
  /// and a simulation that never runs the fused step holds no tile-sized
  /// buffers. Called automatically by rhs_sweep and the fused step
  /// (serial context), so raising the thread count after
  /// construction is safe; exposed for callers that drive the per-block
  /// (or, with `tiles`, the per-tile) hooks below from their own parallel
  /// regions. Must not be called concurrently with block evaluations.
  void ensure_thread_workspaces(bool tiles = false);
  /// The staged step's positivity guard sweep: clamps every block to the
  /// floors (see Params) and adds the count to clamped_cells.
  void apply_positivity_guard();

  // --- Fused-step building blocks (StepScheduler hooks; also driven by the
  // --- cluster layer's step graph). Callers use at most
  // --- thread_count() distinct threads, not accounted in profile(),
  // --- and call ensure_thread_workspaces() from serial context first. Each
  // --- runs under simd::FlushSubnormals, so a caller on its own threads
  // --- computes in the mode of the step graph and the staged sweeps.

  /// Assembles the ghost lab of `block_id` into thread `tid`'s lab buffer.
  void assemble_lab(int block_id, int tid);
  /// The lab thread `tid` assembled last (read back by the lab tests).
  [[nodiscard]] const BlockLab& lab(int tid) const { return labs_.at(tid); }
  /// Evaluates the RHS of `block_id` from the lab thread `tid` just
  /// assembled (accumulator tmp <- a*tmp + RHS).
  void rhs_from_lab(double a_coeff, int block_id, int tid);
  /// RK update of one block: data += b_dt * tmp.
  void update_one(double b_dt, int block_id);
  /// Folds `block_id`'s max characteristic speed into `acc` with the same
  /// per-block kernel compute_dt's sweep uses (max is order-independent, so
  /// folded accumulation is bitwise-equal to the staged reduction).
  void accumulate_block_speed(int block_id, double& acc) const;

  // --- The fused step's task unit: a tile of k^3 blocks (k = tile_blocks(),
  // --- tile ids from tile_indexer()); with k = 1 a tile is a block and tile
  // --- t is block t. Same calling contract as the per-block hooks above,
  // --- after ensure_thread_workspaces(true), and per block bitwise what
  // --- they compute.

  /// Blocks per tile edge (1: the step's task unit is a block).
  [[nodiscard]] int tile_blocks() const noexcept { return tile_k_; }
  /// The tile grid; its BlockTopology is step_topology().
  [[nodiscard]] const BlockIndexer& tile_indexer() const noexcept { return tiles_; }
  [[nodiscard]] int tile_count() const noexcept { return tiles_.count(); }
  /// Block ids of tile `tile`, tile-local x fastest.
  [[nodiscard]] std::span<const int> tile_block_ids(int tile) const {
    const std::size_t k3 = static_cast<std::size_t>(tile_k_) * tile_k_ * tile_k_;
    return {tile_ids_.data() + static_cast<std::size_t>(tile) * k3, k3};
  }
  /// Assembles tile `tile`'s lab into thread `tid`'s lab buffer.
  void assemble_tile(int tile, int tid);
  /// RHS of every block of `tile` from the tile lab thread `tid` assembled.
  void rhs_tile(double a_coeff, int tile, int tid);
  /// RK update of every block of `tile`.
  void update_tile(double b_dt, int tile);
  /// Folds the max characteristic speed of every block of `tile` into `acc`.
  void accumulate_tile_speed(int tile, double& acc) const;
  /// RK stage `stage` of one tile as both layers' step graphs run it: the
  /// RHS from the tile lab thread `tid` assembled, then the MPCF_CHECKED
  /// check of each block's accumulator.
  void rhs_stage(int stage, int tile, int tid);
  /// The update of `tile` in stage `stage` of a step of size dt, the
  /// MPCF_CHECKED check of each block's state, and in the final stage the
  /// positivity guard (guard_tile).
  void update_stage(int stage, double dt, int tile);
  /// Positivity guard of one tile: clamps its blocks like
  /// apply_positivity_guard (nothing when the floors are off) and keeps the
  /// count for end_fused_step. The fused step runs it in each tile's
  /// final-stage update task, after which nothing in the step reads the
  /// tile's cells, so it computes what the staged post-step sweep does.
  void guard_tile(int tile);
  /// Ends a fused step: adds the cells guard_tile clamped to clamped_cells
  /// and publishes the step's folded vmax for the next compute_dt (one-shot
  /// cache, consumed and cleared by compute_dt). Exposed for the cluster
  /// layer's fused driver.
  void end_fused_step(double vmax) noexcept;
  /// Drops the folded vmax; callers that mutate grid cells between an
  /// advance and the next compute_dt must call this (scatter, restarts and
  /// the staged guard sweep do it automatically).
  void invalidate_speed_cache() noexcept { folded_vmax_valid_ = false; }

  /// Readset/consumer tables of the tile grid (the block grid when
  /// tile_blocks() == 1) under the BCs, built lazily (shared by the node
  /// step graph and the cluster layer's step graph).
  [[nodiscard]] const BlockTopology& step_topology();

  /// Compressed data dump of pressure and Gamma (the paper's production
  /// dump set) to `<prefix>_p.cq` / `<prefix>_G.cq`; time is accounted to
  /// profile().io. Thresholds are absolute (pressure spans ~1e7 Pa, Gamma
  /// ~2.3). Returns the combined compression rate.
  double dump(const std::string& prefix, float eps_p = 1e5f, float eps_G = 2.3e-3f);

  [[nodiscard]] Diagnostics diagnostics(double G_vapor, double G_liquid) const {
    return compute_diagnostics(grid_, params_.bc, G_vapor, G_liquid);
  }

  [[nodiscard]] StepProfile& profile() noexcept { return profile_; }
  [[nodiscard]] const StepProfile& profile() const noexcept { return profile_; }

  /// Analytic FLOPs performed by one full step (for GFLOP/s reporting): the
  /// RHS counted on the labs the step evaluates — per tile in the fused
  /// step, per block in the staged sweeps.
  [[nodiscard]] double flops_per_step() const;

 private:
  /// One dependency-scheduled fused step (all RK stages, no grid barrier).
  void advance_fused(double dt);
  /// Lazily builds the node-layer fused step graph.
  void ensure_step_graph();
  /// Whether this grid steps in the fused graph — the node step, or the
  /// cluster step a rank takes part in — rather than the staged sweeps.
  [[nodiscard]] bool fused() const noexcept {
    return params_.fused_step && grid_.block_size() >= kGhosts;
  }
  /// Assembles thread `tid`'s lab of the k^3 blocks from block (bx,by,bz),
  /// cross-checking its reads against the step topology of the tile holding
  /// that block under MPCF_CHECKED.
  void assemble(int bx, int by, int bz, int k, int tid);
  /// Whether the positivity floors are active (see Params).
  [[nodiscard]] bool guard_active() const noexcept {
    return params_.rho_floor > 0 || params_.p_floor > 0;
  }
  /// Clamps one block's cells to the positivity floors; returns the count.
  long clamp_block(Block& block) const;

  /// MPCF_CHECKED builds only (call sites are fenced): scans the post-sweep
  /// state — the RK accumulator after an RHS sweep ("rhs"), the conserved
  /// state after an UPDATE sweep ("update") — for non-finite values and
  /// non-positive density. The first offending cell is dumped as a
  /// mini-state repro file (block data + tmp, raw) and reported via
  /// CheckError with full provenance: phase, the cluster rank (on a rank),
  /// step, RK stage, block, cell, quantity.
  void verify_state(const char* phase, int stage) const;
  /// Per-block slice of verify_state with identical provenance messages
  /// (the fused step verifies each block as its sweep-equivalent completes).
  void verify_block(const char* phase, int stage, int block_id) const;

  Grid grid_;
  Params params_;
  int tile_k_ = 1;              // blocks per tile edge
  BlockIndexer tiles_;          // the tile grid (the block grid when k = 1)
  std::vector<int> tile_ids_;   // k^3 block ids per tile, tile-local x fastest
  std::vector<long> tile_clamped_;  // cells guard_tile clamped, per tile
  double time_ = 0;
  std::vector<BlockLab> labs_;              // one per thread
  std::vector<kernels::RhsWorkspace> ws_;   // one per thread
  int ws_edge_ = 0;                         // edge labs_/ws_ are sized for
  const HaloSlabs* halo_ = nullptr;         // cluster rank's face slabs
  StepProfile profile_;
  std::unique_ptr<BlockTopology> step_topo_;  // lazily built
  std::unique_ptr<StepScheduler> sched_;      // node-layer fused graph
  double folded_vmax_ = 0;          ///< one-shot folded SOS result
  bool folded_vmax_valid_ = false;  ///< consumed by the next compute_dt
};

}  // namespace mpcf
