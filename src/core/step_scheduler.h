// Fused per-block step pipeline (DESIGN.md §14): a block-granular
// dependency-driven task scheduler replacing the barrier-separated
// lab/RHS/update sweeps of the staged schedule.
//
// One kLabRhs task assembles a block's ghost lab and immediately evaluates
// its RHS on the same thread (cache-hot); one kUpdate task applies the RK
// update. Tasks become runnable when per-task atomic dependency counters
// reach zero — a block may be a full RK stage ahead of a slow neighbour, and
// no grid-wide barrier exists inside a step. The counter seeding makes the
// execution *bitwise identical* to the staged schedule: a block's lab waits
// for exactly the previous-stage updates of its readset (the blocks its
// assembly reads, BlockTopology), and a block's update waits for every
// consumer lab to have copied its data (fired eagerly after the lab portion
// of a kLabRhs task, before the RHS runs) plus the block's own RHS. Since
// per-block lab/RHS/update arithmetic is deterministic in the lab contents,
// any interleaving respecting those constraints reproduces the staged
// result bit for bit. The final stage's update tasks fold the next step's
// SOS max-speed reduction (order-independent max), deleting the standalone
// seventh grid sweep from the steady-state step.
//
// One graph shape serves both layers: a whole step (all RK stages) over a
// list of plans, one per local rank. A plan with halo blocks also gets a
// halo pack and drain task per stage, feeding the same counters: the pack
// runs after the previous stage's boundary-block updates and before this
// stage's, and halo-block labs run after the drain. The node step is one
// plan without halo blocks; the cluster step is one plan per local rank.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "grid/sfc.h"

namespace mpcf {

class StepScheduler {
 public:
  /// Work callbacks; `tid` is the executing worker's dense thread id (stable
  /// for the lab -> rhs pair of one task, so per-thread labs carry over).
  struct Hooks {
    std::function<void(int stage, int plan, int block, int tid)> lab;
    std::function<void(int stage, int plan, int block, int tid)> rhs;
    std::function<void(int stage, int plan, int block, int tid)> update;
    /// Folds `block`'s max characteristic speed into `acc` (called after the
    /// final-stage update of each block, on the same thread).
    std::function<void(int plan, int block, double& acc)> sos;
    std::function<void(int stage, int plan)> pack;   ///< plans with halo blocks only
    std::function<void(int stage, int plan)> drain;  ///< plans with halo blocks only
  };

  /// Thread-seconds per hook category, accumulated per plan. The sum over
  /// categories is in-region work time; callers split the region wall clock
  /// proportionally to keep profile totals coherent.
  struct PlanTimes {
    double lab = 0, rhs = 0, up = 0, sos = 0, pack = 0, drain = 0;
  };

  /// One local rank's slice of the step graph.
  struct Plan {
    const BlockTopology* topo = nullptr;  ///< rank-local block topology
    /// Blocks whose labs read the drained halo slabs; their cells are also
    /// exactly what the pack sends. Empty: no pack/drain tasks.
    std::vector<int> halo_blocks;
  };

  /// Builds the whole-step graph over `plans` x `stages` RK stages; run()
  /// executes one full step. For a plan p with halo blocks, at stage s:
  /// pack(p,s) waits on the stage s-1 updates of p's halo blocks and gates
  /// their stage s updates (the pack reads the pre-update state); every
  /// drain(.,s) waits on every pack(.,s), so all of this process's stage s
  /// sends are posted before any stage s blocking receive; drain(p,s) also
  /// waits on p's stage s-1 halo labs, which read the slabs it overwrites;
  /// p's halo-block labs at s wait on drain(p,s). Stage-0 packs are seeds,
  /// last in id order, so their owners pop them first.
  void build(const std::vector<Plan>& plans, int stages);

  [[nodiscard]] int task_count() const noexcept { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] int plan_count() const noexcept { return plan_count_; }

  /// Executes the current graph on thread_count() workers started for this
  /// run (run_workers, common/chunk_loop.h; the calling thread is worker 0):
  /// per-thread work deques with chunked block->thread affinity,
  /// work-stealing from the front of a victim's deque. `vmax_per_plan` (may
  /// be null) receives the per-plan maxima the sos hook folded. `times`
  /// (may be null) receives per-plan thread-seconds. The first hook
  /// exception aborts the run and is rethrown here once the workers joined.
  void run(const Hooks& hooks, std::vector<double>* vmax_per_plan,
           std::vector<PlanTimes>* times);

 private:
  struct Task {
    enum class Kind : std::uint8_t { kLabRhs, kUpdate, kPack, kDrain };
    Kind kind = Kind::kLabRhs;
    std::uint8_t stage = 0;
    std::uint16_t plan = 0;
    int block = -1;        ///< -1 for pack/drain
    int init_pending = 0;  ///< dependency count seeded at each run
    int mid_begin = 0, mid_end = 0;    ///< counters fired after the lab part
    int succ_begin = 0, succ_end = 0;  ///< counters fired at task completion
    float owner_frac = 0;  ///< stable position in [0,1) -> owning thread
  };

  /// Flattens per-task successor lists into the CSR arrays, allocates the
  /// counter storage, and records the seed tasks (init_pending == 0) in id
  /// order — block seeds first, pack seeds last, so owners LIFO-pop their
  /// pack first and sends post early.
  void finalize(std::vector<std::vector<int>>& mid, std::vector<std::vector<int>>& succ);

  std::vector<Task> tasks_;
  std::vector<int> mid_ids_, succ_ids_;
  std::vector<int> seeds_;
  std::unique_ptr<std::atomic<int>[]> pending_;
  int plan_count_ = 0;
  int sos_stage_ = 0;  ///< stage whose updates fold the SOS reduction
  std::atomic<int> remaining_{0};
  std::atomic<bool> abort_{false};
};

}  // namespace mpcf
