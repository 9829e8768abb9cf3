#include "core/step_scheduler.h"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/check.h"
#include "common/chunk_loop.h"
#include "common/thread_safety.h"
#include "core/profile.h"
#include "simd/fp_mode.h"

namespace mpcf {

void StepScheduler::build(const std::vector<Plan>& plans, int stages) {
  require(stages >= 1 && stages <= 255, "StepScheduler: invalid stage count");
  const int np = static_cast<int>(plans.size());
  require(np >= 1 && np <= 65535, "StepScheduler: invalid plan count");

  plan_count_ = np;
  sos_stage_ = stages - 1;
  // Task ids, per stage s: every plan's labs then updates (plan p's block b
  // at s*2*nblocks + base[p] + b, its update nb_p further), then after all
  // block tasks the comm tasks, per stage: the packs then the drains of the
  // plans with halo blocks (`comm`). One plan is the node graph's layout.
  std::vector<int> base(np), comm;
  int nblocks = 0;
  for (int p = 0; p < np; ++p) {
    require(plans[p].topo != nullptr && plans[p].topo->count > 0,
            "StepScheduler: plan without block topology");
    base[p] = 2 * nblocks;
    nblocks += plans[p].topo->count;
    if (!plans[p].halo_blocks.empty()) comm.push_back(p);
  }
  const int nc = static_cast<int>(comm.size());
  const int comm_base = 2 * stages * nblocks;
  const int n = comm_base + 2 * stages * nc;
  tasks_.assign(n, Task{});
  const auto lid = [&](int s, int p, int b) { return 2 * s * nblocks + base[p] + b; };
  const auto uid = [&](int s, int p, int b) {
    return 2 * s * nblocks + base[p] + plans[p].topo->count + b;
  };
  std::vector<int> comm_slot(np, -1);
  for (int k = 0; k < nc; ++k) comm_slot[comm[k]] = k;
  const auto pid = [&](int s, int p) { return comm_base + 2 * s * nc + comm_slot[p]; };
  const auto did = [&](int s, int p) { return pid(s, p) + nc; };

  // Stable owner positions: blocks spread over [0,1) in plan order, a
  // plan's comm tasks at the middle of its range.
  const float total = static_cast<float>(nblocks);
  std::vector<std::vector<int>> mid(n), succ(n);
  int bpos = 0;
  for (int p = 0; p < np; ++p) {
    const BlockTopology& topo = *plans[p].topo;
    const int nb = topo.count;
    const auto& halo = plans[p].halo_blocks;
    std::vector<char> is_halo(nb, 0);
    for (const int b : halo) is_halo[b] = 1;

    for (int s = 0; s < stages; ++s) {
      for (int b = 0; b < nb; ++b) {
        // L(b,s): stage 0 seeds; later stages wait for the previous-stage
        // update of every block the lab assembly reads. Halo-block labs read
        // the drained slabs, so they also wait on drain(p,s).
        Task& l = tasks_[lid(s, p, b)];
        l.kind = Task::Kind::kLabRhs;
        l.stage = static_cast<std::uint8_t>(s);
        l.plan = static_cast<std::uint16_t>(p);
        l.block = b;
        l.init_pending = (s == 0 ? 0 : static_cast<int>(topo.readset(b).size())) +
                         (is_halo[b] ? 1 : 0);
        l.owner_frac = (static_cast<float>(bpos + b) + 0.5f) / total;
        // Once the lab holds its private copy, the source blocks may update
        // and the next drain may overwrite the slabs — fired mid-task,
        // before the RHS runs (the RHS reads only the lab).
        for (const int m : topo.readset(b)) mid[lid(s, p, b)].push_back(uid(s, p, m));
        if (is_halo[b] && s + 1 < stages) mid[lid(s, p, b)].push_back(did(s + 1, p));
        succ[lid(s, p, b)].push_back(uid(s, p, b));

        // U(b,s): one release per consumer lab + one for the block's own RHS
        // (the update consumes the accumulator that RHS wrote), plus the
        // pack for halo blocks (the pack reads the pre-update state).
        Task& u = tasks_[uid(s, p, b)];
        u.kind = Task::Kind::kUpdate;
        u.stage = l.stage;
        u.plan = l.plan;
        u.block = b;
        u.init_pending = static_cast<int>(topo.consumers(b).size()) + 1 + (is_halo[b] ? 1 : 0);
        u.owner_frac = l.owner_frac;
        if (s + 1 < stages) {
          for (const int c : topo.consumers(b)) succ[uid(s, p, b)].push_back(lid(s + 1, p, c));
          if (is_halo[b]) succ[uid(s, p, b)].push_back(pid(s + 1, p));
        }
      }
      if (halo.empty()) continue;

      const int hn = static_cast<int>(halo.size());
      Task& pk = tasks_[pid(s, p)];
      pk.kind = Task::Kind::kPack;
      pk.stage = static_cast<std::uint8_t>(s);
      pk.plan = static_cast<std::uint16_t>(p);
      pk.init_pending = s == 0 ? 0 : hn;
      pk.owner_frac = (static_cast<float>(bpos) + 0.5f * static_cast<float>(nb)) / total;
      for (const int b : halo) succ[pid(s, p)].push_back(uid(s, p, b));
      // Every drain waits on every local pack: all stage-s sends of this
      // process are posted before any stage-s blocking receive, so two
      // single-thread processes can never sit in each other's recv with
      // their packs still queued (DESIGN.md §14 has the full argument).
      for (const int q : comm) succ[pid(s, p)].push_back(did(s, q));

      Task& dr = tasks_[did(s, p)];
      dr.kind = Task::Kind::kDrain;
      dr.stage = pk.stage;
      dr.plan = pk.plan;
      dr.init_pending = nc + (s == 0 ? 0 : hn);
      dr.owner_frac = pk.owner_frac;
      for (const int b : halo) succ[did(s, p)].push_back(lid(s, p, b));
    }
    bpos += nb;
  }
  finalize(mid, succ);
}

void StepScheduler::finalize(std::vector<std::vector<int>>& mid,
                             std::vector<std::vector<int>>& succ) {
  const int n = static_cast<int>(tasks_.size());
  mid_ids_.clear();
  succ_ids_.clear();
  seeds_.clear();
  for (int t = 0; t < n; ++t) {
    Task& task = tasks_[t];
    task.mid_begin = static_cast<int>(mid_ids_.size());
    mid_ids_.insert(mid_ids_.end(), mid[t].begin(), mid[t].end());
    task.mid_end = static_cast<int>(mid_ids_.size());
    task.succ_begin = static_cast<int>(succ_ids_.size());
    succ_ids_.insert(succ_ids_.end(), succ[t].begin(), succ[t].end());
    task.succ_end = static_cast<int>(succ_ids_.size());
    if (task.init_pending == 0) seeds_.push_back(t);
  }
  require(!seeds_.empty(), "StepScheduler: graph has no runnable seed task");
  pending_ = std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(n));
}

void StepScheduler::run(const Hooks& hooks, std::vector<double>* vmax_per_plan,
                        std::vector<PlanTimes>* times) {
  const int n = task_count();
  require(n > 0, "StepScheduler::run: no graph built");
  const int nthreads = thread_count();
  const int np = plan_count_;

  for (int i = 0; i < n; ++i)
    // order: relaxed — workers don't exist yet; thread creation below is the
    // synchronization point that publishes these seeds.
    pending_[i].store(tasks_[i].init_pending, std::memory_order_relaxed);
  remaining_.store(n, std::memory_order_relaxed);  // order: pre-spawn, as above
  abort_.store(false, std::memory_order_relaxed);  // order: pre-spawn, as above
  std::exception_ptr first_error;  // written under error_mu (a local: no GUARDED_BY)
  Mutex error_mu;

  // Per-thread deques: owners pop their own back (LIFO, cache-hot), thieves
  // steal from a victim's front (FIFO, oldest work). Drain tasks enter at
  // the front so their owner pops them last — a blocking receive must never
  // starve runnable compute on a single thread.
  struct alignas(64) ThreadQ {
    Mutex mu;
    std::deque<int> q MPCF_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<ThreadQ>> qs(static_cast<std::size_t>(nthreads));
  for (auto& q : qs) q = std::make_unique<ThreadQ>();
  // Per-(thread, plan) accumulators; each worker writes only its own slice,
  // and at task granularity (>=µs), so cross-line sharing is irrelevant.
  std::vector<double> vm(static_cast<std::size_t>(nthreads) * np, 0.0);
  std::vector<PlanTimes> tt(static_cast<std::size_t>(nthreads) * np);

  const auto owner_of = [&](int t) {
    const int o = static_cast<int>(tasks_[t].owner_frac * static_cast<float>(nthreads));
    return std::min(nthreads - 1, std::max(0, o));
  };
  const auto enqueue = [&](int t) {
    ThreadQ& tq = *qs[static_cast<std::size_t>(owner_of(t))];
    const LockGuard lk(tq.mu);
    if (tasks_[t].kind == Task::Kind::kDrain)
      tq.q.push_front(t);
    else
      tq.q.push_back(t);
  };
  const auto fire = [&](int t) {
    // acq_rel RMW: the release-sequence chain across all predecessors gives
    // the task a happens-before edge to every write it depends on.
    const int old = pending_[t].fetch_sub(1, std::memory_order_acq_rel);
    MPCF_CHECK(old >= 1, "StepScheduler: dependency counter underflow");
    if (old == 1) enqueue(t);
  };

  const auto run_task = [&](int t, int tid) {
    const Task& task = tasks_[t];
    PlanTimes& pt = tt[static_cast<std::size_t>(tid) * np + task.plan];
    Timer tm;
    switch (task.kind) {
      case Task::Kind::kLabRhs:
        hooks.lab(task.stage, task.plan, task.block, tid);
        pt.lab += tm.seconds();
        // The lab holds its private copy: release the source blocks' updates
        // before the (long) RHS evaluation.
        for (int i = task.mid_begin; i < task.mid_end; ++i) fire(mid_ids_[i]);
        tm.restart();
        hooks.rhs(task.stage, task.plan, task.block, tid);
        pt.rhs += tm.seconds();
        break;
      case Task::Kind::kUpdate:
        hooks.update(task.stage, task.plan, task.block, tid);
        pt.up += tm.seconds();
        if (task.stage == sos_stage_) {
          tm.restart();
          hooks.sos(task.plan, task.block, vm[static_cast<std::size_t>(tid) * np + task.plan]);
          pt.sos += tm.seconds();
        }
        break;
      case Task::Kind::kPack:
        hooks.pack(task.stage, task.plan);
        pt.pack += tm.seconds();
        break;
      case Task::Kind::kDrain:
        hooks.drain(task.stage, task.plan);
        pt.drain += tm.seconds();
        break;
    }
    for (int i = task.succ_begin; i < task.succ_end; ++i) fire(succ_ids_[i]);
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  };

  for (const int s : seeds_) enqueue(s);

  const auto worker = [&](int tid) {
    // Every task runs in the kernels' floating-point mode (simd/fp_mode.h).
    const simd::FlushSubnormals ftz;
    // Exceptions must not escape a worker thread: the first one aborts the
    // run and is rethrown below (CheckError provenance survives).
    try {
      // order: relaxed — abort_ is a quit flag, not a data handoff; the
      // error itself travels through error_mu.
      while (!abort_.load(std::memory_order_relaxed)) {
        int t = -1;
        {
          ThreadQ& tq = *qs[static_cast<std::size_t>(tid)];
          const LockGuard lk(tq.mu);
          if (!tq.q.empty()) {
            t = tq.q.back();
            tq.q.pop_back();
          }
        }
        for (int k = 1; k < nthreads && t < 0; ++k) {
          ThreadQ& vq = *qs[static_cast<std::size_t>((tid + k) % nthreads)];
          const LockGuard lk(vq.mu);
          if (!vq.q.empty()) {
            t = vq.q.front();
            vq.q.pop_front();
          }
        }
        if (t < 0) {
          if (remaining_.load(std::memory_order_acquire) == 0) break;
          std::this_thread::yield();
          continue;
        }
        run_task(t, tid);
      }
    } catch (...) {
      {
        const LockGuard lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // order: relaxed — same quit flag; first_error was published under
      // error_mu above.
      abort_.store(true, std::memory_order_relaxed);
    }
  };

  run_workers(nthreads, worker, [&] {
    // order: relaxed — a worker failed to start; the quit flag ends the
    // others, and the join publishes everything they wrote.
    abort_.store(true, std::memory_order_relaxed);
  });

  if (first_error) std::rethrow_exception(first_error);
#if MPCF_CHECKED
  // Counter seeding must exactly match the graph's in-edges: after a clean
  // run every counter has been driven to precisely zero.
  for (int i = 0; i < n; ++i)
    // order: relaxed — workers are joined; this is a single-threaded
    // post-mortem read.
    MPCF_CHECK(pending_[i].load(std::memory_order_relaxed) == 0,
               "StepScheduler: dependency counter nonzero after completed run");
#endif

  if (vmax_per_plan) {
    vmax_per_plan->assign(static_cast<std::size_t>(np), 0.0);
    for (int tid = 0; tid < nthreads; ++tid)
      for (int p = 0; p < np; ++p)
        (*vmax_per_plan)[static_cast<std::size_t>(p)] =
            std::max((*vmax_per_plan)[static_cast<std::size_t>(p)],
                     vm[static_cast<std::size_t>(tid) * np + p]);
  }
  if (times) {
    times->assign(static_cast<std::size_t>(np), PlanTimes{});
    for (int tid = 0; tid < nthreads; ++tid)
      for (int p = 0; p < np; ++p) {
        const PlanTimes& s = tt[static_cast<std::size_t>(tid) * np + p];
        PlanTimes& d = (*times)[static_cast<std::size_t>(p)];
        d.lab += s.lab;
        d.rhs += s.rhs;
        d.up += s.up;
        d.sos += s.sos;
        d.pack += s.pack;
        d.drain += s.drain;
      }
  }
}

}  // namespace mpcf
