#include "cluster/cluster_simulation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <optional>

#include "cluster/transport_inmemory.h"
#include "compression/pipeline.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"

namespace mpcf::cluster {

namespace {

[[nodiscard]] std::shared_ptr<Transport> or_in_memory(std::shared_ptr<Transport> t,
                                                      int nranks) {
  if (t) return t;
  return std::make_shared<InMemoryTransport>(nranks);
}

/// Visits the box [ox, ox + nx) x [oy, oy + ny) x [oz, oz + nz) of `g`'s
/// cells in x-fastest order as contiguous block-row runs:
/// run(first cell, cells in the run, index of the first cell in the box).
template <typename GridT, typename Run>
void for_each_box_row(GridT& g, int ox, int oy, int oz, int nx, int ny, int nz, Run run) {
  const int bs = g.block_size();
  std::size_t at = 0;
  for (int z = oz; z < oz + nz; ++z)
    for (int y = oy; y < oy + ny; ++y)
      for (int x = ox; x < ox + nx;) {
        const int len = std::min(bs - x % bs, ox + nx - x);
        run(&g.block(x / bs, y / bs, z / bs)(x % bs, y % bs, z % bs), len, at);
        at += static_cast<std::size_t>(len);
        x += len;
      }
}

/// Copies a box of `g` into a dense float message in x-fastest Cell AoS
/// order (kNumQuantities per cell): the wire form of the halo slabs and of
/// kTagGather/kTagScatter.
void box_to_msg(const Grid& g, int ox, int oy, int oz, int nx, int ny, int nz,
                std::vector<float>& msg) {
  msg.resize(static_cast<std::size_t>(nx) * ny * nz * kNumQuantities);
  for_each_box_row(g, ox, oy, oz, nx, ny, nz, [&](const Cell* c, int len, std::size_t at) {
    std::memcpy(msg.data() + at * kNumQuantities, c, static_cast<std::size_t>(len) * sizeof(Cell));
  });
}

void msg_to_box(Grid& g, int ox, int oy, int oz, int nx, int ny, int nz,
                const std::vector<float>& msg) {
  require(msg.size() == static_cast<std::size_t>(nx) * ny * nz * kNumQuantities,
          "ClusterSimulation: rank box message size mismatch");
  for_each_box_row(g, ox, oy, oz, nx, ny, nz, [&](Cell* c, int len, std::size_t at) {
    std::memcpy(static_cast<void*>(c), msg.data() + at * kNumQuantities,
                static_cast<std::size_t>(len) * sizeof(Cell));
  });
}

/// Wire form of one rank's directory entries (kTagBlobs, first message):
/// whether the rank encoded its blobs, their count, then their entries.
[[nodiscard]] std::vector<float> pack_directory(bool ok, const std::vector<io::Blob>& blobs) {
  std::vector<std::uint8_t> b;
  b.reserve(8 + 32 * blobs.size());
  io::put_bytes(b, static_cast<std::uint32_t>(ok));
  io::put_bytes(b, static_cast<std::uint32_t>(ok ? blobs.size() : 0));
  if (ok)
    for (const io::Blob& blob : blobs) io::put_entry(b, blob.entry);
  return pack_bytes(b);
}

/// Inverse of pack_directory: appends the entries, returns the ok flag.
bool unpack_directory(const std::vector<float>& msg, std::vector<io::BlobEntry>& entries) {
  const std::vector<std::uint8_t> b = unpack_bytes(msg);
  io::Cursor cur(b);
  const bool ok = cur.get<std::uint32_t>() != 0;
  for (auto n = cur.get<std::uint32_t>(); n > 0; --n) entries.push_back(io::get_entry(cur));
  return ok;
}

/// Runs f unless `error` holds an earlier failure of the call, keeping its
/// exception: the steps after a failure are skipped, the protocol's
/// messages still flow, so no peer waits out its receive timeout.
template <typename F>
void attempt(std::exception_ptr& error, F&& f) {
  if (error) return;
  try {
    f();
  } catch (...) {
    error = std::current_exception();
  }
}

/// One allreduce over every process: a collective I/O call that failed
/// anywhere throws everywhere — this process's own exception where it
/// failed, an error naming `what` elsewhere (an IoError if any was one).
void agree(const SimComm& comm, std::size_t local_ranks, const std::string& what,
           const std::exception_ptr& error) {
  double code = 0;  // 0 ok, 1 failed, 2 failed with an IoError
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const IoError&) {
      code = 2;
    } catch (...) {
      code = 1;
    }
  }
  const double worst = comm.allreduce_max(std::vector<double>(local_ranks, code));
  if (error) std::rethrow_exception(error);
  if (worst == 2) throw IoError(what + ": failed on another rank");
  if (worst == 1) throw PreconditionError(what + ": failed on another rank");
}

}  // namespace

ClusterSimulation::ClusterSimulation(int gbx, int gby, int gbz, int bs,
                                     CartTopology topo, Simulation::Params params)
    : ClusterSimulation(gbx, gby, gbz, bs, topo, params, nullptr) {}

ClusterSimulation::ClusterSimulation(int gbx, int gby, int gbz, int bs,
                                     CartTopology topo, Simulation::Params params,
                                     std::shared_ptr<Transport> transport)
    : topo_(topo), comm_(or_in_memory(std::move(transport), topo.size())), bs_(bs),
      gbx_(gbx), gby_(gby), gbz_(gbz), global_bc_(params.bc) {
  require(comm_.size() == topo.size(),
          "ClusterSimulation: transport rank count does not match the topology");
  require(gbx % topo.rx == 0 && gby % topo.ry == 0 && gbz % topo.rz == 0,
          "ClusterSimulation: block grid must divide evenly across ranks");
  for (int a = 0; a < 3; ++a)
    require(global_bc_.face[a][0] != BCType::kPeriodic ||
                global_bc_.face[a][1] == BCType::kPeriodic,
            "ClusterSimulation: periodic BCs must be two-sided");

  local_ = comm_.local_ranks();
  require(!local_.empty(), "ClusterSimulation: transport drives no local rank");

  const int lbx = gbx / topo.rx, lby = gby / topo.ry, lbz = gbz / topo.rz;
  const double rank_extent = params.extent * lbx / gbx;

  sims_.resize(topo.size());
  boxes_.resize(topo.size());
  interior_.resize(topo.size());
  halo_.resize(topo.size());
  halo_slabs_.resize(topo.size());

  // Geometry exists for every rank (gather/scatter address remote boxes);
  // node-layer state only for the local ones.
  for (int r = 0; r < topo.size(); ++r) {
    int cx, cy, cz;
    topo.coords(r, cx, cy, cz);
    boxes_[r] = RankBox{cx * lbx * bs, cy * lby * bs, cz * lbz * bs,
                        lbx * bs, lby * bs, lbz * bs};
  }

  for (const int r : local_) {
    int cx, cy, cz;
    topo.coords(r, cx, cy, cz);

    // Rank-local BCs: global BCs survive only on faces that lie on the
    // global boundary (used by the wall diagnostics); interior faces are
    // fully served by halo data, never by local folding.
    Simulation::Params rp = params;
    rp.extent = rank_extent;
    const int coords[3] = {cx, cy, cz};
    const int extents[3] = {topo.rx, topo.ry, topo.rz};
    for (int a = 0; a < 3; ++a) {
      if (coords[a] != 0) rp.bc.face[a][0] = BCType::kAbsorbing;
      if (coords[a] != extents[a] - 1) rp.bc.face[a][1] = BCType::kAbsorbing;
    }
    sims_[r] = std::make_unique<Simulation>(lbx, lby, lbz, bs, rp);

    // Ghosts past a face with a neighbour come from that face's halo slab.
    const bool periodic[3] = {global_bc_.face[0][0] == BCType::kPeriodic,
                              global_bc_.face[1][0] == BCType::kPeriodic,
                              global_bc_.face[2][0] == BCType::kPeriodic};
    HaloSlabs& halo = halo_slabs_[r];
    halo.rank = r;
    for (int f = 0; f < 6; ++f)
      halo.neighbor[f] = topo_.neighbor(r, f / 2, f % 2, periodic[f / 2]) >= 0;
    sims_[r]->set_halo_slabs(&halo);

    // Halo/interior split of the local blocks.
    const Grid& g = sims_[r]->grid();
    for (int i = 0; i < g.block_count(); ++i) {
      int bxc, byc, bzc;
      g.indexer().coords(i, bxc, byc, bzc);
      const int bcoord[3] = {bxc, byc, bzc};
      const int bext[3] = {lbx, lby, lbz};
      bool is_halo_block = false;
      for (int a = 0; a < 3 && !is_halo_block; ++a) {
        if (bcoord[a] == 0 && topo_.neighbor(r, a, 0, periodic[a]) >= 0)
          is_halo_block = true;
        if (bcoord[a] == bext[a] - 1 && topo_.neighbor(r, a, 1, periodic[a]) >= 0)
          is_halo_block = true;
      }
      (is_halo_block ? halo_[r] : interior_[r]).push_back(i);
    }
  }
}

Simulation& ClusterSimulation::rank_sim(int r) {
  require(r >= 0 && r < topo_.size() && sims_[r] != nullptr,
          "ClusterSimulation::rank_sim: rank " + std::to_string(r) +
              " is not local to this process");
  return *sims_[r];
}

const Simulation& ClusterSimulation::rank_sim(int r) const {
  require(r >= 0 && r < topo_.size() && sims_[r] != nullptr,
          "ClusterSimulation::rank_sim: rank " + std::to_string(r) +
              " is not local to this process");
  return *sims_[r];
}

bool ClusterSimulation::fetch_remote(int rank, int gx, int gy, int gz, Cell& out) const {
  const RankBox& box = boxes_[rank];
  const int gext[3] = {gbx_ * bs_, gby_ * bs_, gbz_ * bs_};
  int c[3] = {gx, gy, gz};
  Real sign[3] = {1, 1, 1};

  // Fold absorbing/wall axes through the *global* boundary (the folded cell
  // always lands within 3 layers of that boundary, i.e. inside the
  // requesting rank for that axis). Periodic axes stay unfolded: the wrap is
  // realized by the halo slabs filled from the periodic neighbour.
  for (int a = 0; a < 3; ++a) {
    if (c[a] >= 0 && c[a] < gext[a]) continue;
    if (global_bc_.face[a][0] == BCType::kPeriodic) continue;
    const FoldedIndex f = fold_index(c[a], gext[a], global_bc_, a);
    c[a] = f.i;
    sign[a] = f.mom_sign;
  }

  // Per-axis deviation from the rank box.
  const int lo[3] = {box.ox, box.oy, box.oz};
  const int n[3] = {box.nx, box.ny, box.nz};
  int dev_axis = -1, dev_side = -1;
  int ndev = 0;
  for (int a = 0; a < 3; ++a) {
    if (c[a] < lo[a]) {
      ++ndev;
      dev_axis = a;
      dev_side = 0;
    } else if (c[a] >= lo[a] + n[a]) {
      ++ndev;
      dev_axis = a;
      dev_side = 1;
    }
  }

  const Grid& g = sims_[rank]->grid();
  const bool folded = sign[0] < 0 || sign[1] < 0 || sign[2] < 0 || c[0] != gx ||
                      c[1] != gy || c[2] != gz;

  if (ndev == 0) {
    if (!folded) return false;  // plain intra-rank ghost: local path handles it
    out = g.cell(c[0] - lo[0], c[1] - lo[1], c[2] - lo[2]);
    out.ru *= sign[0];
    out.rv *= sign[1];
    out.rw *= sign[2];
    return true;
  }

  if (ndev == 1) {
    const std::vector<Cell>& slab = halo_slabs_[rank].slab(dev_axis * 2 + dev_side, n);
    // Slab-local coordinates: the deviating axis indexes the 3 layers.
    int sc[3] = {c[0] - lo[0], c[1] - lo[1], c[2] - lo[2]};
    sc[dev_axis] = dev_side == 0 ? c[dev_axis] - (lo[dev_axis] - kGhosts)
                                 : c[dev_axis] - (lo[dev_axis] + n[dev_axis]);
    int dims[3] = {n[0], n[1], n[2]};
    dims[dev_axis] = kGhosts;
    const std::size_t idx =
        sc[0] + static_cast<std::size_t>(dims[0]) * (sc[1] + static_cast<std::size_t>(dims[1]) * sc[2]);
    out = slab[idx];
    out.ru *= sign[0];
    out.rv *= sign[1];
    out.rw *= sign[2];
    return true;
  }

  // Edge/corner ghosts (never read by the axis-aligned WENO sweeps): clamp
  // into the rank box for a physically valid placeholder.
  int cc[3];
  for (int a = 0; a < 3; ++a) cc[a] = std::clamp(c[a], lo[a], lo[a] + n[a] - 1);
  out = g.cell(cc[0] - lo[0], cc[1] - lo[1], cc[2] - lo[2]);
  out.ru *= sign[0];
  out.rv *= sign[1];
  out.rw *= sign[2];
  return true;
}

void ClusterSimulation::pack_rank_sends(int r, long epoch) {
  perf::TraceSpan span(tracer_, perf::TracePhase::kExchange, r);
  const Grid& g = sims_[r]->grid();
  const HaloSlabs& halo = halo_slabs_[r];
  const int n[3] = {boxes_[r].nx, boxes_[r].ny, boxes_[r].nz};
  for (int f = 0; f < 6; ++f) {
    if (!halo.neighbor[f]) continue;
    const int a = f / 2, s = f % 2;
    // This rank's kGhosts boundary layers on side s of axis a, in the
    // receiver's slab order.
    int lo[3] = {0, 0, 0};
    int dims[3] = {n[0], n[1], n[2]};
    lo[a] = s == 0 ? 0 : n[a] - kGhosts;
    dims[a] = kGhosts;
    std::vector<float> msg;
    box_to_msg(g, lo[0], lo[1], lo[2], dims[0], dims[1], dims[2], msg);
    // The receiver sees this data on its side (1-s) of axis a, in the
    // stage's epoch.
    const int nr = topo_.neighbor(r, a, s, global_bc_.face[a][0] == BCType::kPeriodic);
    comm_.send(r, nr, halo_tag(a, 1 - s, epoch), std::move(msg));
  }
}

void ClusterSimulation::unpack_halo_slab(int r, int axis, int side,
                                         const std::vector<float>& msg) {
  const int n[3] = {boxes_[r].nx, boxes_[r].ny, boxes_[r].nz};
  const int f = axis * 2 + side;
  std::vector<Cell>& slab = halo_slabs_[r].face[f];
  slab.resize(HaloSlabs::cells(f, n));
  require(msg.size() == slab.size() * kNumQuantities,
          "exchange_halos: message size mismatch");
  // The wire format is the slab's Cell AoS order: one contiguous copy.
  std::memcpy(static_cast<void*>(slab.data()), msg.data(), msg.size() * sizeof(float));
}

void ClusterSimulation::drain_halos(int r, long epoch) {
  struct Face {
    int axis, side, nr;
  };
  const bool periodic[3] = {global_bc_.face[0][0] == BCType::kPeriodic,
                            global_bc_.face[1][0] == BCType::kPeriodic,
                            global_bc_.face[2][0] == BCType::kPeriodic};
  std::vector<Face> pending;
  for (int a = 0; a < 3; ++a)
    for (int s = 0; s < 2; ++s) {
      const int nr = topo_.neighbor(r, a, s, periodic[a]);
      if (nr >= 0) pending.push_back(Face{a, s, nr});
    }

  // Arrival-order drain: atomically pop whichever face already has its slab
  // (try_recv — a probe/recv pair would race against concurrent drains of
  // the same flow), and block — visibly, as a kWait span — only when nothing
  // is deliverable. The blocking recv carries the transport timeout, so a
  // lost message is a diagnosed TransportError, never a silent hang.
  std::vector<float> msg;
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t i = 0; i < pending.size();) {
      const Face f = pending[i];
      if (comm_.try_recv(f.nr, r, halo_tag(f.axis, f.side, epoch), msg)) {
        unpack_halo_slab(r, f.axis, f.side, msg);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;
      } else {
        ++i;
      }
    }
    if (!progressed && !pending.empty()) {
      const Face f = pending.front();
      perf::TraceSpan span(tracer_, perf::TracePhase::kWait, r);
      unpack_halo_slab(r, f.axis, f.side,
                       comm_.recv(f.nr, r, halo_tag(f.axis, f.side, epoch)));
      pending.erase(pending.begin());
    }
  }
}

void ClusterSimulation::exchange_halos() {
  Timer timer;
  ++epoch_;
  // All local sends first, in rank order (non-blocking in the paper;
  // enqueued here), then every drain.
  for (const int r : local_) pack_rank_sends(r, epoch_);
  for (const int r : local_) {
    perf::TraceSpan span(tracer_, perf::TracePhase::kExchange, r);
    drain_halos(r, epoch_);
  }
  const double sec = timer.seconds();
  comm_time_ += sec;
  comm_work_time_ += sec;
  comm_.add_stall_time(sec);
}

double ClusterSimulation::compute_dt() {
  std::vector<double> vmax;
  vmax.reserve(local_.size());
  for (const int r : local_) {
    perf::TraceSpan span(tracer_, perf::TracePhase::kReduce, r);
    const double dt_r = sims_[r]->compute_dt();
    vmax.push_back(sims_[r]->params().cfl * sims_[r]->grid().h() / dt_r);
  }
  const double gmax = comm_.allreduce_max(vmax);
  return front_sim().params().cfl * front_sim().grid().h() / gmax;
}

void ClusterSimulation::ensure_step_graph() {
  if (sched_) return;
  std::vector<StepScheduler::Plan> plans;
  plans.reserve(local_.size());
  for (const int r : local_) {
    Simulation& sim = *sims_[r];
    // The graph's task unit is the rank's tile (a block when its grid does
    // not tile); a halo tile is one that holds a halo block.
    std::vector<char> halo_block(sim.grid().block_count(), 0);
    for (const int b : halo_[r]) halo_block[b] = 1;
    std::vector<char> is_halo(sim.tile_count(), 0);
    std::vector<int> halo_tiles;
    for (int t = 0; t < sim.tile_count(); ++t)
      for (const int b : sim.tile_block_ids(t))
        if (halo_block[b] != 0 && is_halo[t] == 0) {
          is_halo[t] = 1;
          halo_tiles.push_back(t);
        }
    plan_is_halo_.push_back(std::move(is_halo));
    // The sent face slabs are kGhosts cell layers deep, so (bs >= kGhosts,
    // checked by the fused gate in advance) the packs read only halo
    // blocks' cells, all inside the halo tiles — the tiles whose labs read
    // the drained slabs.
    plans.push_back(StepScheduler::Plan{&sim.step_topology(), std::move(halo_tiles)});
  }
  sched_ = std::make_unique<StepScheduler>();
  sched_->build(plans, LsRk3::kStages);
}

void ClusterSimulation::advance_fused(double dt) {
  for (const int r : local_) sims_[r]->ensure_thread_workspaces(true);
  ensure_step_graph();
  // Stage s exchanges under tag epoch epoch_ + 1 + s, the epochs three
  // staged exchange_halos() calls would use.
  const long epoch0 = epoch_ + 1;
  epoch_ += LsRk3::kStages;

  // Task units are the ranks' tiles (blocks on grids that do not tile).
  StepScheduler::Hooks hooks;
  hooks.lab = [this](int, int plan, int tile, int tid) {
    const int r = local_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kLab, r);
    sims_[r]->assemble_tile(tile, tid);
  };
  hooks.rhs = [this](int stage, int plan, int tile, int tid) {
    const int r = local_[static_cast<std::size_t>(plan)];
    // Two same-interval spans: the interior/halo tile membership (what the
    // Cluster tracer tests aggregate) plus the fused-pipeline kRhs phase,
    // whose total is the pure RHS time.
    const bool halo = plan_is_halo_[static_cast<std::size_t>(plan)][tile] != 0;
    perf::TraceSpan membership(
        tracer_, halo ? perf::TracePhase::kHalo : perf::TracePhase::kInterior, r);
    perf::TraceSpan span(tracer_, perf::TracePhase::kRhs, r);
    sims_[r]->rhs_stage(stage, tile, tid);
  };
  hooks.update = [this, dt](int stage, int plan, int tile, int) {
    const int r = local_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kUpdate, r);
    // The final stage runs the positivity guard, before the sos hook folds
    // the tile's speed.
    sims_[r]->update_stage(stage, dt, tile);
  };
  hooks.sos = [this](int plan, int tile, double& acc) {
    sims_[local_[static_cast<std::size_t>(plan)]]->accumulate_tile_speed(tile, acc);
  };
  hooks.pack = [this, epoch0](int stage, int plan) {
    pack_rank_sends(local_[static_cast<std::size_t>(plan)], epoch0 + stage);
  };
  hooks.drain = [this, epoch0](int stage, int plan) {
    const int r = local_[static_cast<std::size_t>(plan)];
    perf::TraceSpan span(tracer_, perf::TracePhase::kHalo, r);
    drain_halos(r, epoch0 + stage);
  };

  std::vector<double> vmax;
  std::vector<StepScheduler::PlanTimes> times;
  Timer region;
  sched_->run(hooks, &vmax, &times);
  const double wall = region.seconds();

  // The step loop never blocked on comm (comm_time_ untouched): the
  // in-region pack/drain thread-seconds go to comm_work_time_, and the
  // region wall clock is split across the rank profiles in proportion to
  // their in-region thread-seconds so profile totals keep their meaning.
  double comm_secs = 0, total = 0;
  for (const StepScheduler::PlanTimes& t : times) {
    comm_secs += t.pack + t.drain;
    total += t.lab + t.rhs + t.up + t.sos + t.pack + t.drain;
  }
  comm_work_time_ += comm_secs;
  for (std::size_t p = 0; p < local_.size(); ++p) {
    const StepScheduler::PlanTimes& t = times[p];
    Simulation& sim = *sims_[local_[p]];
    StepProfile& prof = sim.profile();
    prof.lab += t.lab;
    if (total > 0) {
      prof.rhs += wall * (t.lab + t.rhs) / total;
      prof.up += wall * t.up / total;
      prof.dt += wall * t.sos / total;
    }
    sim.end_fused_step(vmax[p]);
    sim.advance_clock(dt);
  }
  time_ += dt;
  ++steps_;
}

void ClusterSimulation::advance(double dt) {
  if (front_sim().params().fused_step && bs_ >= kGhosts) {
    advance_fused(dt);
    return;
  }
  // The staged oracle: per RK stage a sequential exchange, then each rank's
  // staged sweeps over all of its blocks.
  for (int s = 0; s < LsRk3::kStages; ++s) {
    exchange_halos();
    for (const int r : local_) {
      perf::TraceSpan span(tracer_, perf::TracePhase::kRhs, r);
      sims_[r]->rhs_sweep(s);
    }
    for (const int r : local_) {
      perf::TraceSpan span(tracer_, perf::TracePhase::kUpdate, r);
      sims_[r]->update_sweep(s, dt);
    }
  }
  for (const int r : local_) {
    if (sims_[r]->params().rho_floor > 0 || sims_[r]->params().p_floor > 0)
      sims_[r]->apply_positivity_guard();
    sims_[r]->advance_clock(dt);
  }
  time_ += dt;
  ++steps_;
}

double ClusterSimulation::step() {
  const double dt = compute_dt();
  advance(dt);
  return dt;
}

void ClusterSimulation::gather(Grid& global) const {
  if (!comm_.is_local(0)) {
    // Multi-process: this process's boxes converge on rank 0 through the
    // transport; `global` is not touched here.
    std::vector<float> msg;
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      box_to_msg(sims_[r]->grid(), 0, 0, 0, box.nx, box.ny, box.nz, msg);
      comm_.send(r, 0, kTagGather, msg);
    }
    return;
  }
  require(global.cells_x() == gbx_ * bs_ && global.cells_y() == gby_ * bs_ &&
              global.cells_z() == gbz_ * bs_,
          "gather: global grid shape mismatch");
  for (const int r : local_) {
    const RankBox& box = boxes_[r];
    const Grid& g = sims_[r]->grid();
    for (int iz = 0; iz < box.nz; ++iz)
      for (int iy = 0; iy < box.ny; ++iy)
        for (int ix = 0; ix < box.nx; ++ix)
          global.cell(box.ox + ix, box.oy + iy, box.oz + iz) = g.cell(ix, iy, iz);
  }
  std::vector<float> msg;
  for (int r = 0; r < topo_.size(); ++r) {
    if (comm_.is_local(r)) continue;
    msg = comm_.recv(r, 0, kTagGather);
    const RankBox& box = boxes_[r];
    msg_to_box(global, box.ox, box.oy, box.oz, box.nx, box.ny, box.nz, msg);
  }
}

void ClusterSimulation::scatter(const Grid& global) {
  if (comm_.is_local(0)) {
    require(global.cells_x() == gbx_ * bs_ && global.cells_y() == gby_ * bs_ &&
                global.cells_z() == gbz_ * bs_,
            "scatter: global grid shape mismatch");
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      Grid& g = sims_[r]->grid();
      for (int iz = 0; iz < box.nz; ++iz)
        for (int iy = 0; iy < box.ny; ++iy)
          for (int ix = 0; ix < box.nx; ++ix)
            g.cell(ix, iy, iz) = global.cell(box.ox + ix, box.oy + iy, box.oz + iz);
    }
    std::vector<float> msg;
    for (int r = 0; r < topo_.size(); ++r) {
      if (comm_.is_local(r)) continue;
      const RankBox& box = boxes_[r];
      box_to_msg(global, box.ox, box.oy, box.oz, box.nx, box.ny, box.nz, msg);
      comm_.send(0, r, kTagScatter, msg);
    }
  } else {
    for (const int r : local_) {
      const RankBox& box = boxes_[r];
      const std::vector<float> msg = comm_.recv(0, r, kTagScatter);
      msg_to_box(sims_[r]->grid(), 0, 0, 0, box.nx, box.ny, box.nz, msg);
    }
  }
  // Scatter replaced the state any folded step vmax was computed from.
  for (const int r : local_) sims_[r]->invalidate_speed_cache();
}

std::vector<std::uint32_t> ClusterSimulation::rank_block_ids(int r) const {
  const RankBox& box = boxes_[r];
  return io::global_block_ids(sims_[r]->grid(), gbx_, gby_, gbz_, box.ox / bs_, box.oy / bs_,
                              box.oz / bs_);
}

std::uint64_t ClusterSimulation::write_collective(const std::string& path,
                                                  const io::ContainerHeader& header,
                                                  const std::string& what,
                                                  const std::vector<io::BlobPlan>& plans) const {
  std::exception_ptr error;
  std::uint64_t bytes = 0;
  if (static_cast<int>(local_.size()) == topo_.size()) {
    // Every rank in this process, the node layer's one-rank case included:
    // the ranks' plans stream through the one save path in rank order.
    attempt(error, [&] { bytes = io::save_container(path, header, plans); });
    agree(comm_, local_.size(), what, error);
    return bytes;
  }
  require(local_.size() == 1, what + ": a collective write drives one rank per process");
  // Each process encodes its rank's blocks under their global ids.
  std::vector<io::Blob> mine;
  attempt(error, [&] { mine = io::encode_blobs(plans.front()); });
  const int me = local_.front();
  if (me != 0) {
    // Directory entries first, then one blob per word from the root, piece
    // by piece, so the root holds its own blobs and one remote blob at a
    // time in messages of at most a piece; a zero word ends the transfer.
    comm_.send(me, 0, kTagBlobs, pack_directory(!error, mine));
    if (!error)
      for (const io::Blob& b : mine) {
        if (comm_.recv(0, me, kTagBlobs).front() == 0) break;
        for (const auto& piece : b.pieces)
          if (!piece.empty()) comm_.send(me, 0, kTagBlobs, pack_bytes(piece));
      }
  } else {
    // The root writes the blobs in rank order, then the header and every
    // rank's directory entries.
    std::vector<io::BlobEntry> dir;
    for (const io::Blob& b : mine) dir.push_back(b.entry);
    // Rank r's entries are dir[first[r], first[r + 1]).
    std::vector<std::size_t> first(static_cast<std::size_t>(topo_.size()) + 1, dir.size());
    std::vector<char> ok(first.size(), 0);  ///< ranks waiting for a word per blob
    bool all_ok = !error;
    for (int r = 1; r < topo_.size(); ++r) {
      first[r] = dir.size();
      ok[r] = unpack_directory(comm_.recv(r, 0, kTagBlobs), dir) ? 1 : 0;
      all_ok = all_ok && ok[r] != 0;
    }
    first[topo_.size()] = dir.size();
    std::uint64_t ids = 0;
    for (const io::BlobEntry& e : dir) ids += e.ids.size();
    std::optional<io::ContainerWriter> out;
    if (all_ok) attempt(error, [&] { out.emplace(path, header, dir.size(), ids); });
    if (out)
      attempt(error, [&] {
        for (const io::Blob& b : mine) out->append(b);
      });
    for (int r = 1; r < topo_.size(); ++r) {
      // Every rank that encoded its blobs waits for a word per blob: one,
      // or zero once the write has failed; a blob asked for is always taken.
      for (std::size_t k = first[r]; ok[r] != 0 && k < first[r + 1]; ++k) {
        const bool take = out && !error;
        comm_.send(0, r, kTagBlobs, {take ? 1.0f : 0.0f});
        if (!take) break;
        attempt(error, [&] { out->add(dir[k]); });
        for (std::uint64_t got = 0; got < dir[k].size;) {
          const std::vector<float> msg = comm_.recv(r, 0, kTagBlobs);
          std::uint64_t n = 0;
          std::memcpy(&n, msg.data(), sizeof(n));  // pack_bytes: count, then the bytes
          attempt(error, [&] { out->write(msg.data() + 2, n); });
          if (n == 0) break;  // never sent: the short blob fails the commit
          got += n;
        }
      }
    }
    if (out) attempt(error, [&] { bytes = out->commit(); });
  }
  agree(comm_, local_.size(), what, error);
  // The reduction publishes the root's byte count to every process.
  return static_cast<std::uint64_t>(
      comm_.allreduce_max({local_.front() == 0 ? static_cast<double>(bytes) : 0.0}));
}

std::uint64_t ClusterSimulation::save_checkpoint(const std::string& path) const {
  const double extent = front_sim().grid().h() * (gbx_ * bs_);  // as the node layer has it
  std::vector<io::BlobPlan> plans;
  for (const int r : local_)
    plans.push_back(io::checkpoint_plan(sims_[r]->grid(), rank_block_ids(r)));
  return write_collective(
      path, io::checkpoint_header(gbx_, gby_, gbz_, bs_, time_, extent, steps_),
      "save_checkpoint", plans);
}

void ClusterSimulation::load_checkpoint(const std::string& path) {
  std::vector<Block*> targets(static_cast<std::size_t>(gbx_) * gby_ * gbz_, nullptr);
  for (const int r : local_) {
    Grid& g = sims_[r]->grid();
    const std::vector<std::uint32_t> ids = rank_block_ids(r);
    for (int i = 0; i < g.block_count(); ++i)
      targets[ids[static_cast<std::size_t>(i)]] = &g.block(i);
  }
  // Every process checks and restores the blobs of its own blocks, read
  // from the file itself. Each pass ends in an agreement, so a file one
  // process rejects is rejected by all before any grid is written.
  std::exception_ptr error;
  std::optional<io::CheckpointLoad> load;
  const double extent = front_sim().grid().h() * (gbx_ * bs_);
  attempt(error, [&] {
    load.emplace(path, gbx_, gby_, gbz_, bs_, extent, std::move(targets));
  });
  agree(comm_, local_.size(), "load_checkpoint", error);
  attempt(error, [&] { load->restore(); });
  agree(comm_, local_.size(), "load_checkpoint", error);
  const io::CheckpointClock clock = load->clock();
  for (const int r : local_) sims_[r]->restore_clock(clock.time, clock.steps);
  time_ = clock.time;
  steps_ = clock.steps;
  // epoch_ deliberately survives: restarting to an earlier step must never
  // regress halo tags (the MPCF_CHECKED monotonicity guard would trip, and
  // an in-flight late message could alias a re-run stage).
}

std::string ClusterSimulation::save_checkpoint_rotating(io::CheckpointRotator& rot) {
  perf::TraceSpan span(tracer_, perf::TracePhase::kCheckpoint, 0);
  return rot.save(steps_,
                  [this](const std::string& path) { save_checkpoint(path); });
}

std::string ClusterSimulation::load_latest_valid_checkpoint(
    io::CheckpointRotator& rot, std::vector<std::string>* skipped) {
  // One kCheckpoint span per attempt: corrupt files the recovery scan had
  // to skip show up as extra (short) spans in the trace.
  return rot.load_latest_valid(
      [this](const std::string& path) {
        perf::TraceSpan span(tracer_, perf::TracePhase::kCheckpoint, 0);
        load_checkpoint(path);
      },
      skipped);
}

Diagnostics ClusterSimulation::diagnostics(double G_vapor, double G_liquid) const {
  std::vector<Diagnostics> per;
  per.reserve(local_.size());
  for (const int r : local_) per.push_back(sims_[r]->diagnostics(G_vapor, G_liquid));

  // Component-wise collectives: sums in rank order from zero, so the totals
  // do not depend on how the ranks are spread over processes.
  const auto field = [&](double Diagnostics::* m) {
    std::vector<double> v(per.size());
    for (std::size_t i = 0; i < per.size(); ++i) v[i] = per[i].*m;
    return v;
  };
  Diagnostics total;
  total.max_p_field = comm_.allreduce_max(field(&Diagnostics::max_p_field));
  total.max_p_wall = comm_.allreduce_max(field(&Diagnostics::max_p_wall));
  total.kinetic_energy = comm_.allreduce_sum(field(&Diagnostics::kinetic_energy));
  total.total_energy = comm_.allreduce_sum(field(&Diagnostics::total_energy));
  total.mass = comm_.allreduce_sum(field(&Diagnostics::mass));
  total.vapor_volume = comm_.allreduce_sum(field(&Diagnostics::vapor_volume));
  total.equivalent_radius = std::cbrt(3.0 * total.vapor_volume / (4.0 * M_PI));
  return total;
}

std::uint64_t ClusterSimulation::dump_collective(const std::string& path,
                                                 const compression::CompressionParams& params) {
  const io::ContainerHeader header = io::dump_header(
      {.bx = gbx_, .by = gby_, .bz = gbz_, .block_size = bs_, .levels = wavelet::max_levels(bs_),
       .eps = params.eps, .derived_pressure = params.derive_pressure, .quantity = params.quantity,
       .streams = {}});
  // Each rank's grid is one plan of pipelined streams under its blocks'
  // global ids; the plans share one set of worker buffers.
  compression::DumpWorkers workers;
  std::vector<io::BlobPlan> plans;
  for (const int r : local_) {
    io::BlobPlan plan =
        compression::dump_plan(sims_[r]->grid(), params, rank_block_ids(r), workers);
    plan.encode = [this, r, encode = std::move(plan.encode)](int c, int w) {
      perf::TraceSpan span(tracer_, perf::TracePhase::kDump, r);
      return encode(c, w);
    };
    plans.push_back(std::move(plan));
  }
  return write_collective(path, header, "dump_collective", plans);
}

StepProfile ClusterSimulation::profile() const {
  StepProfile total;
  for (const int r : local_) {
    const StepProfile& p = sims_[r]->profile();
    total.rhs += p.rhs;
    total.lab += p.lab;
    total.dt += p.dt;
    total.up += p.up;
    total.io += p.io;
    total.sos_sweeps += p.sos_sweeps;
  }
  total.steps = steps_;
  return total;
}

}  // namespace mpcf::cluster
