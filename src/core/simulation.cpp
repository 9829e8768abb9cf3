#include "core/simulation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/chunk_loop.h"
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

int tile_blocks(int bs, int nx, int ny, int nz) noexcept {
  // Only bs 8 tiles. A bs 4 row is shorter than a vec8 and runs the
  // kernels' scalar tail, whose rounding the tile's full vectors do not
  // reproduce (at vec8, 495 of 512 bs 4 blocks of a cloud state got a
  // different RHS as 16^3 tiles); larger blocks gain nothing.
  if (bs != 8) return 1;
  const int k = kTileEdge / bs;
  return nx % k == 0 && ny % k == 0 && nz % k == 0 ? k : 1;
}

Simulation::Simulation(int bx, int by, int bz, int bs, Params params)
    : grid_(bx, by, bz, bs, params.extent), params_(params) {
  const int k = mpcf::tile_blocks(bs, bx, by, bz);
  tile_k_ = k;
  tiles_ = k == 1 ? grid_.indexer() : BlockIndexer(bx / k, by / k, bz / k);
  tile_ids_.reserve(static_cast<std::size_t>(grid_.block_count()));
  for (int t = 0; t < tiles_.count(); ++t) {
    int tx, ty, tz;
    tiles_.coords(t, tx, ty, tz);
    for (int jz = 0; jz < k; ++jz)
      for (int jy = 0; jy < k; ++jy)
        for (int jx = 0; jx < k; ++jx)
          tile_ids_.push_back(grid_.indexer().linear(k * tx + jx, k * ty + jy, k * tz + jz));
  }
  tile_clamped_.assign(static_cast<std::size_t>(tiles_.count()), 0);
  ensure_thread_workspaces();
}

void Simulation::ensure_thread_workspaces(bool tiles) {
  // Sized lazily (not once at construction) so a thread count raised
  // after construction still gets dedicated buffers, and tile-sized only
  // once the fused step runs.
  const int edge = std::max(ws_edge_, (tiles ? tile_k_ : 1) * grid_.block_size());
  const int nthreads = std::max(thread_count(), static_cast<int>(labs_.size()));
  const int have = edge > ws_edge_ ? 0 : static_cast<int>(labs_.size());
  if (nthreads <= have) return;
  labs_.resize(nthreads);
  ws_.resize(nthreads);
  for (int t = have; t < nthreads; ++t) {
    labs_[t].resize(edge);
    ws_[t].resize(edge);
  }
  ws_edge_ = edge;
}

double Simulation::compute_dt() {
  Timer timer;
  double vmax = 0;
  if (folded_vmax_valid_) {
    // The fused step already folded this reduction into its final-stage
    // updates; consume the cached maximum instead of sweeping the grid a
    // seventh time. One-shot: any later mutation of the state must go
    // through a fresh sweep.
    vmax = folded_vmax_;
    folded_vmax_valid_ = false;
  } else {
    const bool use_simd = params_.impl != kernels::KernelImpl::kScalar;
    // One maximum per block, folded in block order (max is order-independent
    // anyway: it starts at 0 and std::max never takes a NaN).
    std::vector<double> speed(static_cast<std::size_t>(grid_.block_count()));
    for_each_chunk(grid_.block_count(), [&](int i, int) {
      const simd::FlushSubnormals ftz;
      const Block& b = grid_.block(i);
      speed[static_cast<std::size_t>(i)] = use_simd
                                               ? kernels::block_max_speed_simd(b, params_.width)
                                               : kernels::block_max_speed(b);
    });
    for (const double v : speed) vmax = std::max(vmax, v);
    ++profile_.sos_sweeps;
  }
  profile_.dt += timer.seconds();
  require(vmax > 0, "compute_dt: zero maximum characteristic velocity");
  return params_.cfl * grid_.h() / vmax;
}

void Simulation::rhs_sweep(int stage) {
  Timer timer;
  ensure_thread_workspaces();

  // Dynamic scheduling with a parallel granularity of one block (Section 6,
  // "Enhancing TLP"); each worker reuses its dedicated lab + workspace.
  const int nb = grid_.block_count();
  std::vector<double> lab_s(static_cast<std::size_t>(chunk_workers(nb)), 0.0);
  for_each_chunk(nb, [&](int i, int tid) {
    Timer lab_timer;
    assemble_lab(i, tid);
    lab_s[static_cast<std::size_t>(tid)] += lab_timer.seconds();
    rhs_from_lab(LsRk3::a[stage], i, tid);
  });
  for (const double s : lab_s) profile_.lab += s;
  profile_.rhs += timer.seconds();
#if MPCF_CHECKED
  verify_state("rhs", stage);
#endif
}

void Simulation::assemble_lab(int block_id, int tid) {
  int bx, by, bz;
  grid_.indexer().coords(block_id, bx, by, bz);
  assemble(bx, by, bz, 1, tid);
}

void Simulation::assemble_tile(int tile, int tid) {
  int tx, ty, tz;
  tiles_.coords(tile, tx, ty, tz);
  const int k = tile_k_;
  assemble(k * tx, k * ty, k * tz, k, tid);
}

void Simulation::assemble(int bx, int by, int bz, int k, int tid) {
  const simd::FlushSubnormals ftz;
  require(tid >= 0 && tid < static_cast<int>(labs_.size()),
          "Simulation: more threads than per-thread labs");
  BlockLab& lab = labs_[tid];
  // Bulk assembly: intra-rank ghosts fold through the BCs per axis entry;
  // on a cluster rank, ghosts past a face with a neighbour read its slab.
  lab.load(grid_, bx, by, bz, params_.bc, halo_, k);
#if MPCF_CHECKED
  // The fused scheduler's counters are seeded from BlockTopology::readset
  // over tiles; cross-validate that the lab's fold tables, mapped to tiles,
  // never referenced one the topology missed (a miss would mean an
  // unsynchronized read). A block's lab reads within its tile's.
  if (step_topo_) {
    thread_local std::vector<int> reads;
    lab.read_block_set(tiles_, reads, tile_k_);
    const int tile = tiles_.linear(bx / tile_k_, by / tile_k_, bz / tile_k_);
    const auto rs = step_topo_->readset(tile);
    MPCF_CHECK(std::includes(rs.begin(), rs.end(), reads.begin(), reads.end()),
               "Simulation: lab read a tile outside its topology readset, tile " +
                   std::to_string(tile));
  }
#endif
}

void Simulation::rhs_from_lab(double a_coeff, int block_id, int tid) {
  const simd::FlushSubnormals ftz;
  kernels::rhs_block(labs_[tid], static_cast<Real>(grid_.h()),
                     static_cast<Real>(a_coeff), grid_.block(block_id), ws_[tid],
                     params_.impl, params_.weno_order, params_.width);
}

void Simulation::rhs_tile(double a_coeff, int tile, int tid) {
  const simd::FlushSubnormals ftz;
  // k <= kTileEdge / 8 blocks per edge (tile_blocks).
  std::array<Block*, 8> blocks{};
  const std::span<const int> ids = tile_block_ids(tile);
  for (std::size_t j = 0; j < ids.size(); ++j) blocks[j] = &grid_.block(ids[j]);
  kernels::rhs_tile(labs_[tid], static_cast<Real>(grid_.h()), static_cast<Real>(a_coeff),
                    blocks.data(), tile_k_, ws_[tid], params_.impl, params_.weno_order,
                    params_.width);
}

void Simulation::update_one(double b_dt, int block_id) {
  const simd::FlushSubnormals ftz;
  if (params_.impl != kernels::KernelImpl::kScalar)
    kernels::update_block_simd(grid_.block(block_id), static_cast<Real>(b_dt),
                               params_.width);
  else
    kernels::update_block(grid_.block(block_id), static_cast<Real>(b_dt));
}

void Simulation::update_tile(double b_dt, int tile) {
  for (const int b : tile_block_ids(tile)) update_one(b_dt, b);
}

void Simulation::update_sweep(int stage, double dt) {
  Timer timer;
  const double b_dt = LsRk3::b[stage] * dt;
  for_each_chunk(grid_.block_count(), [&](int i, int) { update_one(b_dt, i); });
  profile_.up += timer.seconds();
#if MPCF_CHECKED
  verify_state("update", stage);
#endif
}

void Simulation::rhs_stage(int stage, int tile, int tid) {
  rhs_tile(LsRk3::a[stage], tile, tid);
#if MPCF_CHECKED
  for (const int b : tile_block_ids(tile)) verify_block("rhs", stage, b);
#endif
}

void Simulation::update_stage(int stage, double dt, int tile) {
  update_tile(LsRk3::b[stage] * dt, tile);
#if MPCF_CHECKED
  for (const int b : tile_block_ids(tile)) verify_block("update", stage, b);
#endif
  if (stage == LsRk3::kStages - 1) guard_tile(tile);
}

void Simulation::accumulate_block_speed(int block_id, double& acc) const {
  const simd::FlushSubnormals ftz;
  kernels::block_max_speed_accumulate(grid_.block(block_id),
                                      params_.impl != kernels::KernelImpl::kScalar,
                                      params_.width, acc);
}

void Simulation::accumulate_tile_speed(int tile, double& acc) const {
  for (const int b : tile_block_ids(tile)) accumulate_block_speed(b, acc);
}

const BlockTopology& Simulation::step_topology() {
  if (!step_topo_)
    step_topo_ = std::make_unique<BlockTopology>(build_block_topology(
        tiles_, tile_k_ * grid_.block_size(), kGhosts, params_.bc));
  return *step_topo_;
}

void Simulation::ensure_step_graph() {
  if (sched_) return;
  sched_ = std::make_unique<StepScheduler>();
  // The node step is one plan with no halo blocks: no pack/drain tasks.
  sched_->build({StepScheduler::Plan{&step_topology(), {}}}, LsRk3::kStages);
}

void Simulation::advance(double dt) {
  // The cluster layer drives rank sims through its own step graph; halo
  // slabs here mean this sim is such a rank, so its standalone advance
  // keeps the staged sweeps (halo coordination lives upstairs).
  if (fused() && halo_ == nullptr) {
    advance_fused(dt);
    return;
  }
  for (int s = 0; s < LsRk3::kStages; ++s) {
    rhs_sweep(s);
    update_sweep(s, dt);
  }
  if (guard_active()) apply_positivity_guard();
  advance_clock(dt);
}

void Simulation::advance_fused(double dt) {
  ensure_thread_workspaces(true);
  ensure_step_graph();

  // The graph's task unit is a tile (a block when tile_blocks() == 1). A
  // tile's final-stage update also runs the positivity guard, which the
  // SOS hook then sees: its folded max speed is the post-guard one.
  StepScheduler::Hooks hooks;
  hooks.lab = [this](int, int, int tile, int tid) { assemble_tile(tile, tid); };
  hooks.rhs = [this](int stage, int, int tile, int tid) { rhs_stage(stage, tile, tid); };
  hooks.update = [this, dt](int stage, int, int tile, int) { update_stage(stage, dt, tile); };
  hooks.sos = [this](int, int tile, double& acc) { accumulate_tile_speed(tile, acc); };

  std::vector<double> vmax;
  std::vector<StepScheduler::PlanTimes> times;
  Timer region;
  sched_->run(hooks, &vmax, &times);
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

  end_fused_step(vmax.front());
  advance_clock(dt);
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
  const int nb = grid_.block_count();
  std::vector<long> clamped(static_cast<std::size_t>(chunk_workers(nb)), 0);
  for_each_chunk(nb, [&](int i, int w) {
    const simd::FlushSubnormals ftz;
    clamped[static_cast<std::size_t>(w)] += clamp_block(grid_.block(i));
  });
  for (const long n : clamped) params_.clamped_cells += n;
  // The clamp may have changed the state a folded vmax was computed from.
  invalidate_speed_cache();
}

void Simulation::guard_tile(int tile) {
  if (!guard_active()) return;
  const simd::FlushSubnormals ftz;
  long clamped = 0;
  for (const int b : tile_block_ids(tile)) clamped += clamp_block(grid_.block(b));
  // One task per tile writes its slot: no two threads share one.
  tile_clamped_[static_cast<std::size_t>(tile)] = clamped;
}

void Simulation::end_fused_step(double vmax) noexcept {
  for (long& n : tile_clamped_) params_.clamped_cells += std::exchange(n, 0);
  folded_vmax_ = vmax;
  folded_vmax_valid_ = true;
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
      // A cluster rank's checks name the rank: its blocks are rank-local.
      const std::string rank = halo_ != nullptr ? "rank " + std::to_string(halo_->rank) : "";
      std::string repro = "mpcf_repro_" +
                          (halo_ != nullptr ? "rank" + std::to_string(halo_->rank) + "_" : "") +
                          "step" + std::to_string(profile_.steps) + "_stage" +
                          std::to_string(stage) + "_block" + std::to_string(b) + ".bin";
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
                  "post-" + std::string(phase) + " state invalid: " +
                      (rank.empty() ? "" : rank + ", ") + "step " +
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
  // The RHS runs once per lab: per tile in the fused step (a tile's lab
  // has no ghost work between its blocks), per block in the staged sweeps.
  const int k = fused() ? tile_k_ : 1;
  const double labs = nb / (k * k * k);
  return nb * (kernels::sos_flops(bs) + LsRk3::kStages * kernels::update_flops(bs)) +
         labs * LsRk3::kStages * kernels::rhs_flops(k * bs);
}

}  // namespace mpcf
