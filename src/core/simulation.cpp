#include "core/simulation.h"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/check.h"
#include "compression/pipeline.h"
#include "eos/stiffened_gas.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"
#include "kernels/sos.h"
#include "kernels/update.h"
#include "simd/fp_mode.h"

namespace mpcf {

Simulation::Simulation(int bx, int by, int bz, int bs)
    : Simulation(bx, by, bz, bs, Params{}) {}

Simulation::Simulation(int bx, int by, int bz, int bs, Params params)
    : grid_(bx, by, bz, bs, params.extent), params_(params) {
  ensure_thread_workspaces();
}

void Simulation::ensure_thread_workspaces() {
  // Sized lazily (not once at construction) so a thread count raised via
  // omp_set_num_threads() after construction still gets dedicated buffers.
  const int nthreads = omp_get_max_threads();
  const int have = static_cast<int>(labs_.size());
  if (nthreads <= have) return;
  labs_.resize(nthreads);
  ws_.resize(nthreads);
  for (int t = have; t < nthreads; ++t) {
    labs_[t].resize(grid_.block_size());
    ws_[t].resize(grid_.block_size());
  }
}

double Simulation::compute_dt() {
  Timer timer;
  double vmax = 0;
  if (folded_vmax_valid_) {
    // The fused step already folded this reduction into its final stage (or
    // the positivity guard); consume the cached maximum instead of sweeping
    // the grid a seventh time. One-shot: any later mutation of the state
    // must go through a fresh sweep.
    vmax = folded_vmax_;
    folded_vmax_valid_ = false;
  } else {
    const bool use_simd = params_.impl != kernels::KernelImpl::kScalar;
#pragma omp parallel reduction(max : vmax)
    {
      const simd::FlushSubnormals ftz;
#pragma omp for schedule(static)
      for (int i = 0; i < grid_.block_count(); ++i) {
        const Block& b = grid_.block(i);
        const double v = use_simd ? kernels::block_max_speed_simd(b, params_.width)
                                  : kernels::block_max_speed(b);
        vmax = std::max(vmax, v);
      }
    }
    ++profile_.sos_sweeps;
  }
  profile_.dt += timer.seconds();
  require(vmax > 0, "compute_dt: zero maximum characteristic velocity");
  return params_.cfl * grid_.h() / vmax;
}

void Simulation::evaluate_rhs(double a_coeff) {
  Timer timer;
  ensure_thread_workspaces();

  // Dynamic scheduling with a parallel granularity of one block (Section 6,
  // "Enhancing TLP"); each thread reuses its dedicated lab + workspace.
#pragma omp parallel
  {
    const simd::FlushSubnormals ftz;
    const int tid = omp_get_thread_num();
#pragma omp for schedule(dynamic, 1)
    for (int i = 0; i < grid_.block_count(); ++i) {
      Timer lab_timer;
      assemble_lab(i, tid);
      const double lab_s = lab_timer.seconds();
#pragma omp atomic
      profile_.lab += lab_s;
      rhs_from_lab(a_coeff, i, tid);
    }
  }
  profile_.rhs += timer.seconds();
}

void Simulation::assemble_lab(int block_id, int tid) {
  const simd::FlushSubnormals ftz;
  require(tid >= 0 && tid < static_cast<int>(labs_.size()),
          "Simulation: more threads than per-thread labs");
  BlockLab& lab = labs_[tid];
  int bx, by, bz;
  grid_.indexer().coords(block_id, bx, by, bz);
  // Bulk assembly: intra-rank ghosts fold through the BCs region-by-region;
  // the cluster layer's override intercepts only out-of-domain coordinates.
  lab.load(grid_, bx, by, bz, params_.bc,
           ghost_override_ ? &ghost_override_ : nullptr);
#if MPCF_CHECKED
  // The fused scheduler's counters are seeded from BlockTopology::readset;
  // cross-validate that the lab's fold tables never referenced a block the
  // topology missed (a miss would mean an unsynchronized read).
  if (step_topo_) {
    thread_local std::vector<int> reads;
    lab.read_block_set(grid_.indexer(), reads);
    const auto rs = step_topo_->readset(block_id);
    MPCF_CHECK(std::includes(rs.begin(), rs.end(), reads.begin(), reads.end()),
               "Simulation: lab read a block outside its topology readset, block " +
                   std::to_string(block_id));
  }
#endif
}

void Simulation::rhs_from_lab(double a_coeff, int block_id, int tid) {
  const simd::FlushSubnormals ftz;
  kernels::rhs_block(labs_[tid], static_cast<Real>(grid_.h()),
                     static_cast<Real>(a_coeff), grid_.block(block_id), ws_[tid],
                     params_.impl, params_.weno_order, params_.width);
}

void Simulation::update_one(double b_dt, int block_id) {
  const simd::FlushSubnormals ftz;
  if (params_.impl != kernels::KernelImpl::kScalar)
    kernels::update_block_simd(grid_.block(block_id), static_cast<Real>(b_dt),
                               params_.width);
  else
    kernels::update_block(grid_.block(block_id), static_cast<Real>(b_dt));
}

void Simulation::update(double b_dt) {
  Timer timer;
#pragma omp parallel
  {
    const simd::FlushSubnormals ftz;
#pragma omp for schedule(static)
    for (int i = 0; i < grid_.block_count(); ++i) update_one(b_dt, i);
  }
  profile_.up += timer.seconds();
}

void Simulation::accumulate_block_speed(int block_id, double& acc) const {
  const simd::FlushSubnormals ftz;
  kernels::block_max_speed_accumulate(grid_.block(block_id),
                                      params_.impl != kernels::KernelImpl::kScalar,
                                      params_.width, acc);
}

const BlockTopology& Simulation::step_topology() {
  if (!step_topo_)
    step_topo_ = std::make_unique<BlockTopology>(build_block_topology(
        grid_.indexer(), grid_.block_size(), kGhosts, params_.bc));
  return *step_topo_;
}

void Simulation::ensure_step_graph() {
  if (sched_) return;
  sched_ = std::make_unique<StepScheduler>();
  // The node step is one plan with no halo blocks: no pack/drain tasks.
  sched_->build({StepScheduler::Plan{&step_topology(), {}}}, LsRk3::kStages);
}

void Simulation::advance(double dt) {
  // The cluster layer drives rank sims through its own step graph;
  // a ghost override here means this sim is such a rank, so its standalone
  // advance keeps the staged sweeps (halo coordination lives upstairs).
  if (params_.fused_step && !ghost_override_ && grid_.block_size() >= kGhosts) {
    advance_fused(dt);
    return;
  }
  for (int s = 0; s < LsRk3::kStages; ++s) {
    evaluate_rhs(LsRk3::a[s]);
#if MPCF_CHECKED
    verify_state("rhs", s);
#endif
    update(LsRk3::b[s] * dt);
#if MPCF_CHECKED
    verify_state("update", s);
#endif
  }
  if (params_.rho_floor > 0 || params_.p_floor > 0) apply_positivity_guard();
  time_ += dt;
  ++profile_.steps;
}

void Simulation::advance_fused(double dt) {
  ensure_thread_workspaces();
  ensure_step_graph();
  // With positivity floors active the guard mutates the state compute_dt
  // would read, so the SOS reduction folds into the guard sweep instead of
  // the final-stage update tasks.
  const bool guard = params_.rho_floor > 0 || params_.p_floor > 0;

  StepScheduler::Hooks hooks;
  hooks.lab = [this](int, int, int block, int tid) { assemble_lab(block, tid); };
  hooks.rhs = [this](int stage, int, int block, int tid) {
    rhs_from_lab(LsRk3::a[stage], block, tid);
#if MPCF_CHECKED
    verify_block("rhs", stage, block);
#else
    (void)stage;
#endif
  };
  hooks.update = [this, dt](int stage, int, int block, int) {
    update_one(LsRk3::b[stage] * dt, block);
#if MPCF_CHECKED
    verify_block("update", stage, block);
#endif
  };
  hooks.sos = [this](int, int block, double& acc) { accumulate_block_speed(block, acc); };

  std::vector<double> vmax;
  std::vector<StepScheduler::PlanTimes> times;
  Timer region;
  sched_->run(hooks, omp_get_max_threads(), !guard, &vmax, &times);
  const double wall = region.seconds();

  // profile().lab keeps its thread-seconds meaning; the region wall clock is
  // split across the sweep categories in proportion to their thread-seconds,
  // so profile().total() still sums to elapsed step time.
  const StepScheduler::PlanTimes& t = times.front();
  profile_.lab += t.lab;
  const double work = t.lab + t.rhs + t.up + t.sos;
  if (work > 0) {
    profile_.rhs += wall * (t.lab + t.rhs) / work;
    profile_.up += wall * t.up / work;
    profile_.dt += wall * t.sos / work;
  }

  if (guard) {
    double gv = 0;
    apply_positivity_guard_folded(&gv);
    cache_step_vmax(gv);
  } else {
    cache_step_vmax(vmax.front());
  }
  time_ += dt;
  ++profile_.steps;
}

long Simulation::clamp_block(Block& b) const {
  const Real rfloor = static_cast<Real>(params_.rho_floor);
  const Real pfloor = static_cast<Real>(params_.p_floor);
  long clamped = 0;
  Cell* cells = b.data();
  const std::size_t n = b.cells();
  for (std::size_t k = 0; k < n; ++k) {
    Cell& c = cells[k];
    bool touched = false;
    // Non-finite momenta poison the kinetic energy below; zero them.
    if (!std::isfinite(c.ru) || !std::isfinite(c.rv) || !std::isfinite(c.rw)) {
      c.ru = c.rv = c.rw = 0;
      touched = true;
    }
    if (!(c.rho > rfloor)) {
      c.rho = rfloor;
      touched = true;
    }
    if (!(c.G > 0)) {
      c.G = static_cast<Real>(materials::kVapor.Gamma());
      touched = true;
    }
    if (!(c.P >= 0)) {
      c.P = 0;
      touched = true;
    }
    const Real ke = 0.5f * (c.ru * c.ru + c.rv * c.rv + c.rw * c.rw) / c.rho;
    const Real p = (c.E - ke - c.P) / c.G;
    if (!(p > pfloor)) {  // catches NaN E as well
      c.E = c.G * pfloor + c.P + ke;
      touched = true;
    }
    if (touched) ++clamped;
  }
  return clamped;
}

void Simulation::apply_positivity_guard() {
  long clamped = 0;
#pragma omp parallel reduction(+ : clamped)
  {
    const simd::FlushSubnormals ftz;
#pragma omp for schedule(static)
    for (int i = 0; i < grid_.block_count(); ++i) clamped += clamp_block(grid_.block(i));
  }
  params_.clamped_cells += clamped;
  // The clamp may have changed the state a folded vmax was computed from.
  invalidate_speed_cache();
}

void Simulation::apply_positivity_guard_folded(double* vmax) {
  const bool use_simd = params_.impl != kernels::KernelImpl::kScalar;
  long clamped = 0;
  double v = 0;
  // Per block: clamp first, then fold its max speed — the folded maximum is
  // exactly what a post-guard compute_dt sweep would reduce.
#pragma omp parallel reduction(+ : clamped) reduction(max : v)
  {
    const simd::FlushSubnormals ftz;
#pragma omp for schedule(static)
    for (int i = 0; i < grid_.block_count(); ++i) {
      clamped += clamp_block(grid_.block(i));
      kernels::block_max_speed_accumulate(grid_.block(i), use_simd, params_.width, v);
    }
  }
  params_.clamped_cells += clamped;
  *vmax = v;
}

#if MPCF_CHECKED
void Simulation::verify_state(const char* phase, int stage) const {
  for (int b = 0; b < grid_.block_count(); ++b) verify_block(phase, stage, b);
}

void Simulation::verify_block(const char* phase, int stage, int b) const {
  const bool after_rhs = std::string_view(phase) == "rhs";
  const int bs = grid_.block_size();
  const Block& blk = grid_.block(b);
  // After RHS the invariant lives in the RK accumulator (finite fluxes);
  // after UPDATE it lives in the conserved state (finite + positive rho).
  const Cell* cells = after_rhs ? blk.tmp_data() : blk.data();
  const std::size_t n = blk.cells();
  for (std::size_t k = 0; k < n; ++k) {
      const Cell& c = cells[k];
      int bad_q = -1;
      for (int q = 0; q < kNumQuantities; ++q) {
        if (!std::isfinite(c.q(q))) {
          bad_q = q;
          break;
        }
      }
      if (bad_q < 0 && !after_rhs && !(c.rho > 0)) bad_q = Q_RHO;
      if (bad_q < 0) continue;

      const int ix = static_cast<int>(k) % bs;
      const int iy = (static_cast<int>(k) / bs) % bs;
      const int iz = static_cast<int>(k) / (bs * bs);
      std::string repro = "mpcf_repro_step" + std::to_string(profile_.steps) +
                          "_stage" + std::to_string(stage) + "_block" +
                          std::to_string(b) + ".bin";
      // Mini-state repro: enough to reload the offending block and re-run
      // the failing sweep in isolation (magic, provenance header, then the
      // block's conserved state and RK accumulator, raw).
      try {
        io::SafeFile f(repro);
        f.write("MPCFRPR1", 8);
        for (std::int32_t v : {b, bs, stage, after_rhs ? 0 : 1,
                               static_cast<std::int32_t>(bad_q)})
          f.put(v);
        f.put(static_cast<std::int64_t>(profile_.steps));
        f.put(time_);
        f.write(blk.data(), n * sizeof(Cell));
        f.write(blk.tmp_data(), n * sizeof(Cell));
        f.commit();
      } catch (const IoError&) {
        repro = "<repro dump failed>";
      }
      check::fail(__FILE__, __LINE__, after_rhs ? "finite(tmp)" : "finite(u) && rho>0",
                  "post-" + std::string(phase) + " state invalid: step " +
                      std::to_string(profile_.steps) + ", RK stage " +
                      std::to_string(stage) + ", block " + std::to_string(b) +
                      ", cell (" + std::to_string(ix) + "," + std::to_string(iy) +
                      "," + std::to_string(iz) + "), quantity " +
                      std::to_string(bad_q) + " = " +
                      std::to_string(c.q(bad_q)) + ", repro " + repro);
  }
}
#endif  // MPCF_CHECKED

double Simulation::step() {
  const double dt = compute_dt();
  advance(dt);
  return dt;
}

double Simulation::dump(const std::string& prefix, float eps_p, float eps_G) {
  Timer timer;
  compression::CompressionParams pg;
  pg.quantity = Q_G;
  pg.eps = eps_G;
  compression::PipelineStats sg;
  compression::dump_quantity_pipelined(grid_, pg, prefix + "_G.cq", &sg);

  compression::CompressionParams pp;
  pp.derive_pressure = true;
  pp.eps = eps_p;
  compression::PipelineStats sp;
  compression::dump_quantity_pipelined(grid_, pp, prefix + "_p.cq", &sp);
  profile_.io += timer.seconds();

  const double raw = static_cast<double>(sg.uncompressed_bytes) +
                     static_cast<double>(sp.uncompressed_bytes);
  const double comp = static_cast<double>(sg.compressed_bytes) +
                      static_cast<double>(sp.compressed_bytes);
  return comp > 0 ? raw / comp : 0.0;
}

double Simulation::flops_per_step() const {
  const int bs = grid_.block_size();
  const double nb = grid_.block_count();
  return nb * (kernels::sos_flops(bs) +
               LsRk3::kStages * (kernels::rhs_flops(bs) + kernels::update_flops(bs)));
}

}  // namespace mpcf
