// Tests of the cluster layer: topology, transport, and — the critical
// property — multi-rank runs reproducing the single-rank solution exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/cluster_simulation.h"
#include "compression/pipeline.h"
#include "container_image.h"
#include "eos/stiffened_gas.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/safe_file.h"
#include "omp_threads.h"
#include "rank_cases.h"
#include "workload/cloud.h"

namespace mpcf::cluster {
namespace {

TEST(CartTopology, CoordsRoundTrip) {
  CartTopology t(2, 3, 4);
  EXPECT_EQ(t.size(), 24);
  for (int r = 0; r < t.size(); ++r) {
    int x, y, z;
    t.coords(r, x, y, z);
    EXPECT_EQ(t.rank(x, y, z), r);
  }
}

TEST(CartTopology, NeighborsNonPeriodic) {
  CartTopology t(2, 2, 2);
  EXPECT_EQ(t.neighbor(0, 0, 0, false), -1);       // low-x edge
  EXPECT_EQ(t.neighbor(0, 0, 1, false), 1);        // +x neighbor
  EXPECT_EQ(t.neighbor(0, 1, 1, false), 2);        // +y
  EXPECT_EQ(t.neighbor(0, 2, 1, false), 4);        // +z
  EXPECT_EQ(t.neighbor(7, 0, 1, false), -1);       // high-x edge
}

TEST(CartTopology, NeighborsPeriodicWrap) {
  CartTopology t(3, 1, 1);
  EXPECT_EQ(t.neighbor(0, 0, 0, true), 2);
  EXPECT_EQ(t.neighbor(2, 0, 1, true), 0);
  EXPECT_EQ(t.neighbor(0, 1, 0, true), 0);  // self across a 1-rank axis
}

TEST(SimComm, SendRecvFifoPerTag) {
  SimComm comm(2);
  comm.send(0, 1, 7, {1.0f, 2.0f});
  comm.send(0, 1, 7, {3.0f});
  comm.send(1, 0, 7, {9.0f});
  std::vector<float> a;
  EXPECT_FALSE(comm.try_recv(0, 1, 8, a));  // another tag's flow holds nothing
  ASSERT_TRUE(comm.try_recv(0, 1, 7, a));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1.0f);
  const auto b = comm.recv(0, 1, 7);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 3.0f);
  // A receive with no matching message blocks until the timeout, then fails
  // with a diagnosable TransportError naming the flow (regression: this used
  // to hard-fail immediately, turning legitimate waits into errors).
  comm.set_recv_timeout(0.05);
  try {
    (void)comm.recv(0, 1, 7);
    FAIL() << "recv on an empty flow must time out";
  } catch (const TransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag 7"), std::string::npos) << what;
  }
  EXPECT_EQ(comm.stats().messages, 3u);
  EXPECT_EQ(comm.stats().bytes, 4u * sizeof(float));
}

TEST(SimComm, RecvUnblocksWhenMessageArrivesLate) {
  // The blocking receive must wake as soon as a matching send lands — the
  // paper's cluster layer legitimately receives messages posted by another
  // worker after the recv started.
  SimComm comm(2);
  comm.set_recv_timeout(10.0);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    comm.send(0, 1, 4, {42.0f});
  });
  const auto msg = comm.recv(0, 1, 4);
  sender.join();
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(msg[0], 42.0f);
}

TEST(SimComm, TryRecvIsAtomicUnderConcurrentDrains) {
  // A check for a waiting message followed by recv() is a check-then-act
  // race: two drains can both see the same message and the loser dies on
  // an empty mailbox. try_recv pops
  // atomically — N messages split across two concurrent drains must arrive
  // exactly once each (regression for the halo drain loop).
  SimComm comm(2);
  const int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) comm.send(0, 1, 9, {static_cast<float>(i)});
  std::vector<float> got_a, got_b;
  std::thread drain_a([&] {
    std::vector<float> msg;
    while (comm.try_recv(0, 1, 9, msg)) got_a.push_back(msg.at(0));
  });
  std::vector<float> msg;
  while (comm.try_recv(0, 1, 9, msg)) got_b.push_back(msg.at(0));
  drain_a.join();
  ASSERT_EQ(got_a.size() + got_b.size(), static_cast<std::size_t>(kMessages));
  // Each drain sees an ascending subsequence; together they cover 0..N-1.
  std::vector<bool> seen(kMessages, false);
  for (const auto& seq : {got_a, got_b}) {
    float last = -1.0f;
    for (const float v : seq) {
      EXPECT_GT(v, last);
      last = v;
      ASSERT_FALSE(seen[static_cast<int>(v)]) << "message " << v << " popped twice";
      seen[static_cast<int>(v)] = true;
    }
  }
}

TEST(Transport, HaloTagSchemaEncodesEpochAndFace) {
  // Epoch-qualified halo tags: a fast rank one RK stage ahead must never
  // alias the previous stage's flow (regression: tags used to be axis*2+side
  // only, so stage N+1 messages matched stage N receives).
  EXPECT_NE(halo_tag(0, 0, 0), halo_tag(0, 0, 1));
  for (long epoch : {0L, 1L, 7L, 1000L})
    for (int a = 0; a < 3; ++a)
      for (int s = 0; s < 2; ++s) {
        const int tag = halo_tag(a, s, epoch);
        EXPECT_TRUE(is_halo_tag(tag));
        EXPECT_EQ(halo_tag_epoch(tag), epoch);
        EXPECT_EQ(halo_tag_face(tag), a * 2 + s);
      }
  EXPECT_FALSE(is_halo_tag(kTagGather));
  EXPECT_FALSE(is_halo_tag(kTagBlobs));
}

TEST(SimComm, ManyMessagesStayFifoPerKey) {
  // The fused step graph lets fast ranks run ahead, deepening mailbox
  // queues; order must stay FIFO per (src,dst,tag) and pops must not lose
  // messages. Interleave sends across several keys to stress the matching.
  SimComm comm(3);
  const int kMessages = 500;
  struct KeyDef {
    int src, dst, tag;
  };
  const KeyDef keys[] = {{0, 1, 0}, {0, 1, 1}, {2, 1, 0}, {1, 0, 3}};
  for (int i = 0; i < kMessages; ++i)
    for (const auto& k : keys)
      comm.send(k.src, k.dst, k.tag,
                {static_cast<float>(i), static_cast<float>(k.tag)});
  // Every queued message is waiting: a non-blocking receive finds it as
  // surely as a blocking one.
  for (int i = 0; i < kMessages; ++i)
    for (const auto& k : keys) {
      std::vector<float> msg;
      if (i % 2 == 0)
        ASSERT_TRUE(comm.try_recv(k.src, k.dst, k.tag, msg));
      else
        msg = comm.recv(k.src, k.dst, k.tag);
      ASSERT_EQ(msg.size(), 2u);
      EXPECT_EQ(msg[0], static_cast<float>(i)) << "key " << k.src << "," << k.tag;
      EXPECT_EQ(msg[1], static_cast<float>(k.tag));
    }
  std::vector<float> none;
  for (const auto& k : keys) EXPECT_FALSE(comm.try_recv(k.src, k.dst, k.tag, none));
  EXPECT_EQ(comm.stats().messages, 4u * kMessages);
  EXPECT_EQ(comm.stats().bytes, 4u * kMessages * 2 * sizeof(float));
  EXPECT_GT(comm.stats().recv_seconds, 0.0);
}

TEST(SimComm, Collectives) {
  SimComm comm(4);
  EXPECT_DOUBLE_EQ(comm.allreduce_max({1.0, 7.0, 3.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(comm.allreduce_sum({1.0, 7.0, 3.0, 2.0}), 13.0);
  EXPECT_EQ(comm.stats().collectives, 2u);
}

// --- Multi-rank == single-rank ------------------------------------------

Simulation::Params cloud_params(BCType bctype) {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = BoundaryConditions::all(bctype);
  return p;
}

void init_cloud(Grid& g) {
  std::vector<Bubble> bubbles{{0.35e-3, 0.4e-3, 0.5e-3, 0.1e-3},
                              {0.65e-3, 0.6e-3, 0.45e-3, 0.12e-3}};
  TwoPhaseIC ic;
  set_cloud_ic(g, bubbles, ic);
}

void copy_into_cluster(const Grid& global, ClusterSimulation& cs) {
  Grid check(global.blocks_x(), global.blocks_y(), global.blocks_z(),
             global.block_size(), 1.0);
  (void)check;
  for (int r = 0; r < cs.rank_count(); ++r) {
    Grid& rg = cs.rank_sim(r).grid();
    // Recover the rank origin by gathering once: instead, copy via the
    // public gather-compatible layout (rank boxes are row-major by topology).
    int cx, cy, cz;
    cs.topology().coords(r, cx, cy, cz);
    const int ox = cx * rg.cells_x(), oy = cy * rg.cells_y(), oz = cz * rg.cells_z();
    for (int iz = 0; iz < rg.cells_z(); ++iz)
      for (int iy = 0; iy < rg.cells_y(); ++iy)
        for (int ix = 0; ix < rg.cells_x(); ++ix)
          rg.cell(ix, iy, iz) = global.cell(ox + ix, oy + iy, oz + iz);
  }
}

class RankEquivalenceTest : public ::testing::TestWithParam<testing_cases::RankCase> {};

TEST_P(RankEquivalenceTest, MultiRankMatchesSingleRank) {
  const testing_cases::RankCase& c = GetParam();
  const int gb = 4, bs = c.bs;  // 32^3 (bs 8) or 64^3 (bs 16) cells globally

  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  params.bc = c.bc;
  Simulation single(gb, gb, gb, bs, params);
  init_cloud(single.grid());

  ClusterSimulation cluster(gb, gb, gb, bs, CartTopology(c.rx, c.ry, c.rz), params);
  copy_into_cluster(single.grid(), cluster);

  for (int s = 0; s < 4; ++s) {
    const double dt1 = single.step();
    const double dt2 = cluster.step();
    ASSERT_DOUBLE_EQ(dt1, dt2) << "step " << s;
  }

  Grid gathered(gb, gb, gb, bs, params.extent);
  cluster.gather(gathered);
  for (int iz = 0; iz < single.grid().cells_z(); ++iz)
    for (int iy = 0; iy < single.grid().cells_y(); ++iy)
      for (int ix = 0; ix < single.grid().cells_x(); ++ix)
        for (int q = 0; q < kNumQuantities; ++q) {
          ASSERT_EQ(gathered.cell(ix, iy, iz).q(q), single.grid().cell(ix, iy, iz).q(q))
              << "mismatch at " << ix << "," << iy << "," << iz << " q=" << q << ", " << c;
        }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RankEquivalenceTest,
                         ::testing::ValuesIn(testing_cases::rank_cases()));

TEST(Cluster, TracerCapturesPhasesAndExportsChromeJson) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  ClusterSimulation cs(8, 4, 4, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  cs.tracer().enable(true);
  cs.step();
  cs.step();

  using perf::TracePhase;
  // 2x1x1 absorbing: each rank box of 4x4x4 blocks of 8^3 steps as 2x2x2
  // tiles, a 1x2x2 halo layer of tiles and a 1x2x2 interior.
  ASSERT_EQ(cs.rank_sim(0).tile_blocks(), 2);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kExchange), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kHalo), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kUpdate), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kReduce), 0.0);
  // The fused schedule (the default) must not hide RHS time: its block
  // tasks emit lab-assembly and pure-RHS spans on top of the membership
  // (interior/halo) spans the staged schedule also records.
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kLab), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs), 0.0);
  // Per-rank filtering: both ranks contributed interior and RHS spans.
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior, 0), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kInterior, 1), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs, 0), 0.0);
  EXPECT_GT(cs.tracer().total_seconds(TracePhase::kRhs, 1), 0.0);

  const auto events = cs.tracer().events();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 0);
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_TRUE(e.rank >= 0 && e.rank < cs.rank_count());
  }

  const std::string json = cs.tracer().chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"interior\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"halo\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lab\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rhs\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');

  const std::string path = ::testing::TempDir() + "/mpcf_trace.json";
  cs.tracer().write_chrome_json(path);
  // mpcf-lint: allow(raw-io): test oracle re-reads the exported trace independently of the writer
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), json);
  std::remove(path.c_str());

  // clear() drops events and disabling stops recording.
  cs.tracer().clear();
  EXPECT_TRUE(cs.tracer().events().empty());
  cs.tracer().enable(false);
  cs.step();
  EXPECT_TRUE(cs.tracer().events().empty());
}

TEST(Cluster, TraceDrawsOneLanePerWorkerAcrossSteps) {
  // Each step starts its workers afresh, and an exited worker's chrome tid
  // goes back for the next one to take: ten steps at 4 threads record on
  // at most 4 lanes, not one new lane per started thread.
  const test::Threads four(4);
  ClusterSimulation cs(8, 4, 4, 8, CartTopology(2, 1, 1), cloud_params(BCType::kAbsorbing));
  for (int r = 0; r < cs.rank_count(); ++r) init_cloud(cs.rank_sim(r).grid());
  cs.tracer().enable(true);
  for (int s = 0; s < 10; ++s) cs.step();
  std::set<int> tids;
  for (const auto& e : cs.tracer().events()) tids.insert(e.tid);
  EXPECT_FALSE(tids.empty());
  EXPECT_LE(tids.size(), 4u);
}

TEST(Cluster, StallAccountingSurfacesInCommStats) {
  Simulation::Params params = cloud_params(BCType::kPeriodic);

  // Staged oracle: the step loop blocks on the full exchange, and the stall
  // surfaces identically through SimComm stats and comm_time().
  Simulation::Params staged_params = params;
  staged_params.fused_step = false;
  ClusterSimulation seq(4, 4, 4, 8, CartTopology(2, 1, 1), staged_params);
  for (int r = 0; r < seq.rank_count(); ++r) init_cloud(seq.rank_sim(r).grid());
  seq.step();
  const auto seq_stats = seq.comm().stats();
  EXPECT_GT(seq_stats.stall_seconds, 0.0);
  EXPECT_GT(seq_stats.recv_seconds, 0.0);
  EXPECT_DOUBLE_EQ(seq_stats.stall_seconds, seq.comm_time());
  EXPECT_DOUBLE_EQ(seq.comm_work_time(), seq.comm_time());

  // Fused step: packs and drains run as tasks inside the step graph, so the
  // step loop never blocks on comm — zero exposed stall — while the
  // communication work itself shows up in comm_work_time() and the drain
  // time in recv_seconds.
  ClusterSimulation ovl(4, 4, 4, 8, CartTopology(2, 1, 1), params);
  for (int r = 0; r < ovl.rank_count(); ++r) init_cloud(ovl.rank_sim(r).grid());
  ovl.step();
  const auto ovl_stats = ovl.comm().stats();
  EXPECT_DOUBLE_EQ(ovl.comm_time(), 0.0);
  EXPECT_DOUBLE_EQ(ovl_stats.stall_seconds, 0.0);
  EXPECT_GT(ovl.comm_work_time(), 0.0);
  EXPECT_GT(ovl_stats.recv_seconds, 0.0);
  EXPECT_EQ(ovl_stats.messages, seq_stats.messages);
  EXPECT_EQ(ovl.halo_epoch(), seq.halo_epoch());
}

TEST(Cluster, MessageAccountingMatchesTopology) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
  for (int r = 0; r < 8; ++r) init_cloud(cs.rank_sim(r).grid());
  cs.step();
  // 8 ranks x 3 faces with neighbours (corner ranks of a 2^3 topology)
  // x 3 RK stages = 72 messages per step.
  EXPECT_EQ(cs.comm().stats().messages, 72u);
  // Each message: 3-layer slab of 16x16 cells x 7 floats.
  EXPECT_EQ(cs.comm().stats().bytes, 72u * 3 * 16 * 16 * 7 * sizeof(float));
  // Default fused step: no exposed stall, but the communication work
  // itself is accounted.
  EXPECT_DOUBLE_EQ(cs.comm_time(), 0.0);
  EXPECT_GT(cs.comm_work_time(), 0.0);
  // One epoch per RK stage: three stages stepped once.
  EXPECT_EQ(cs.halo_epoch(), 3);
  cs.step();
  EXPECT_EQ(cs.halo_epoch(), 6);
}

TEST(Cluster, HaloInteriorSplitCoversAllBlocks) {
  Simulation::Params params = cloud_params(BCType::kPeriodic);
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 2), params);
  for (int r = 0; r < cs.rank_count(); ++r) {
    const auto& h = cs.halo_blocks(r);
    const auto& in = cs.interior_blocks(r);
    EXPECT_EQ(h.size() + in.size(),
              static_cast<std::size_t>(cs.rank_sim(r).grid().block_count()));
    // A 2x2x2-block rank with neighbours on all faces: every block is halo.
    EXPECT_EQ(in.size(), 0u);
  }
  // With absorbing faces instead, 1-rank-per-axis topology has no messages
  // and all blocks are interior.
  params.bc = BoundaryConditions::all(BCType::kAbsorbing);
  ClusterSimulation cs1(2, 2, 2, 8, CartTopology(1, 1, 1), params);
  EXPECT_EQ(cs1.halo_blocks(0).size(), 0u);
  EXPECT_EQ(cs1.interior_blocks(0).size(), 8u);
}

TEST(Cluster, DiagnosticsReduceAcrossRanks) {
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  Simulation single(4, 4, 4, 8, params);
  init_cloud(single.grid());
  ClusterSimulation cs(4, 4, 4, 8, CartTopology(2, 2, 1), params);
  copy_into_cluster(single.grid(), cs);
  const double Gv = materials::kVapor.Gamma(), Gl = materials::kLiquid.Gamma();
  const auto ds = single.diagnostics(Gv, Gl);
  const auto dc = cs.diagnostics(Gv, Gl);
  EXPECT_NEAR(dc.mass, ds.mass, 1e-9 * ds.mass);
  EXPECT_NEAR(dc.vapor_volume, ds.vapor_volume, 1e-9 * ds.vapor_volume + 1e-20);
  EXPECT_DOUBLE_EQ(dc.max_p_field, ds.max_p_field);
}

/// Global ids of local rank r's blocks in a gbx*gby*gbz-block cluster.
std::vector<std::uint32_t> rank_ids(const ClusterSimulation& cs, int r, int gbx, int gby,
                                    int gbz) {
  int cx, cy, cz;
  cs.topology().coords(r, cx, cy, cz);
  const Grid& g = cs.rank_sim(r).grid();
  return io::global_block_ids(g, gbx, gby, gbz, cx * g.blocks_x(), cy * g.blocks_y(),
                              cz * g.blocks_z());
}

TEST(Cluster, CollectiveDumpMatchesSingleRankField) {
  // The collective dump, read back from its file: every rank's streams under
  // global ids decode to the single-rank field, in every topology, and the
  // one-rank dump is the node layer's file of the same state. Its bytes are
  // the image of the ranks' in-memory blobs in rank order at every thread
  // count: the ranks' plans stream through one window, which straddles
  // ranks (at 2x2x2 and 8 threads each rank has 8 streams, the window 16).
  Simulation::Params params = cloud_params(BCType::kAbsorbing);
  Simulation single(4, 4, 4, 8, params);
  init_cloud(single.grid());
  compression::CompressionParams cp;
  cp.eps = 0.0f;  // lossless so fields must match to transform round-off
  cp.quantity = Q_G;
  const io::ContainerHeader header =
      io::dump_header({.bx = 4, .by = 4, .bz = 4, .block_size = 8,
                       .levels = wavelet::max_levels(8), .eps = cp.eps,
                       .derived_pressure = false, .quantity = Q_G, .streams = {}});
  const std::string path = ::testing::TempDir() + "/mpcf_cluster_dump.cq";
  const std::string node = ::testing::TempDir() + "/mpcf_node_dump.cq";
  for (const int threads : {1, 2, 4, 8}) {
    const test::Threads scope(threads);
    compression::dump_quantity_pipelined(single.grid(), cp, node);
    const Field3D<float> reference = compression::decompress_to_field(io::read_compressed(node));
    for (const CartTopology topo : {CartTopology(1, 1, 1), CartTopology(2, 2, 1),
                                    CartTopology(1, 2, 2), CartTopology(2, 2, 2)}) {
      SCOPED_TRACE(testing::Message() << topo.rx << "x" << topo.ry << "x" << topo.rz << ", "
                                      << threads << " threads");
      ClusterSimulation cs(4, 4, 4, 8, topo, params);
      copy_into_cluster(single.grid(), cs);
      const std::uint64_t bytes = cs.dump_collective(path, cp);
      const auto rt = io::read_compressed(path);
      const std::vector<std::uint8_t> file = io::read_file(path);
      EXPECT_EQ(bytes, file.size());
      EXPECT_EQ(rt.bx, 4);
      const auto field = compression::decompress_to_field(rt);
      EXPECT_EQ(std::memcmp(field.data(), reference.data(), field.size() * sizeof(float)), 0);
      for (int iz = 0; iz < single.grid().cells_z(); ++iz)
        for (int iy = 0; iy < single.grid().cells_y(); ++iy)
          for (int ix = 0; ix < single.grid().cells_x(); ++ix)
            ASSERT_NEAR(field(ix, iy, iz), single.grid().cell(ix, iy, iz).G, 2e-5f);
      compression::DumpWorkers workers;
      std::vector<io::Blob> blobs;
      for (int r = 0; r < topo.size(); ++r) {
        const io::BlobPlan plan =
            compression::dump_plan(cs.rank_sim(r).grid(), cp, rank_ids(cs, r, 4, 4, 4), workers);
        for (io::Blob& b : io::encode_blobs(plan)) blobs.push_back(std::move(b));
      }
      EXPECT_TRUE(file == test::image_of(header, blobs));
      if (topo.size() == 1) {
        EXPECT_EQ(file, io::read_file(node));
      }
    }
  }
  std::remove(path.c_str());
  std::remove(node.c_str());
}

/// A cloud state on `topo` at time 3e-7 and step 4, restored from a
/// node-layer checkpoint.
std::unique_ptr<ClusterSimulation> cloud_cluster(const CartTopology& topo) {
  const Simulation::Params params = cloud_params(BCType::kAbsorbing);
  Grid global(4, 4, 2, 16, params.extent);
  init_cloud(global);
  const std::string path = ::testing::TempDir() + "/mpcf_cloud_cluster.ckp";
  (void)io::save_grid_checkpoint(path, global, 3e-7, 4);
  auto cs = std::make_unique<ClusterSimulation>(4, 4, 2, 16, topo, params);
  cs->load_checkpoint(path);
  std::remove(path.c_str());
  return cs;
}

TEST(ClusterCheckpoint, EveryTopologyRestoresEveryOtherBitwise) {
  // Files written at 1, 2x2x1 and 1x2x2 ranks hold their topology's blobs;
  // each loads into each topology to the same state and clock.
  const CartTopology topos[] = {CartTopology(1, 1, 1), CartTopology(2, 2, 1),
                                CartTopology(1, 2, 2)};
  const auto reference = cloud_cluster(topos[0]);
  Grid expected(4, 4, 2, 16, 1e-3);
  reference->gather(expected);
  for (const CartTopology& from : topos) {
    const std::string path = ::testing::TempDir() + "/mpcf_topo_" +
                             std::to_string(from.rx) + std::to_string(from.ry) +
                             std::to_string(from.rz) + ".ckp";
    const std::uint64_t bytes = cloud_cluster(from)->save_checkpoint(path);
    EXPECT_EQ(bytes, io::read_file(path).size());
    for (const CartTopology& to : topos) {
      SCOPED_TRACE(testing::Message() << from.size() << " ranks -> " << to.rx << "x" << to.ry
                                      << "x" << to.rz);
      ClusterSimulation cs(4, 4, 2, 16, to, cloud_params(BCType::kAbsorbing));
      cs.load_checkpoint(path);
      EXPECT_EQ(cs.time(), 3e-7);
      EXPECT_EQ(cs.rank_sim(0).step_count(), 4);
      Grid got(4, 4, 2, 16, 1e-3);
      cs.gather(got);
      for (int b = 0; b < got.block_count(); ++b)
        ASSERT_EQ(std::memcmp(got.block(b).data(), expected.block(b).data(),
                              got.block(b).cells() * sizeof(Cell)),
                  0)
            << "block " << b;
    }
    std::remove(path.c_str());
  }
}

TEST(ClusterCheckpoint, InProcessFileIsTheImageOfTheRanksBlobsAtEveryThreadCount) {
  // The ranks' plans stream through one window in rank order: the file is
  // the image of every rank's in-memory blobs, whatever the thread count.
  // Each rank's 8 (2x2x1) or 4 (2x2x2) blocks of 16^3 are one run, fewer
  // blobs than any window, so the window always straddles ranks.
  for (const CartTopology topo : {CartTopology(2, 2, 1), CartTopology(2, 2, 2)}) {
    const auto cs = cloud_cluster(topo);
    const std::string path = ::testing::TempDir() + "/mpcf_cluster_image.ckp";
    const io::ContainerHeader header = io::checkpoint_header(
        4, 4, 2, 16, 3e-7, cs->rank_sim(0).grid().h() * (4 * 16), 4);
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << topo.rx << "x" << topo.ry << "x" << topo.rz << ", "
                                      << threads << " threads");
      const test::Threads scope(threads);
      std::vector<io::Blob> blobs;
      for (int r = 0; r < topo.size(); ++r)
        for (io::Blob& b : io::encode_blobs(
                 io::checkpoint_plan(cs->rank_sim(r).grid(), rank_ids(*cs, r, 4, 4, 2))))
          blobs.push_back(std::move(b));
      ASSERT_EQ(blobs.size(), static_cast<std::size_t>(topo.size()));
      EXPECT_EQ(cs->save_checkpoint(path), test::image_of(header, blobs).size());
      EXPECT_TRUE(io::read_file(path) == test::image_of(header, blobs));
    }
    std::remove(path.c_str());
  }
}

TEST(ClusterCheckpoint, OneRankFileIsTheNodeLayerFile) {
  const auto cs = cloud_cluster(CartTopology(1, 1, 1));
  const std::string a = ::testing::TempDir() + "/mpcf_one_rank.ckp";
  const std::string b = ::testing::TempDir() + "/mpcf_node.ckp";
  (void)cs->save_checkpoint(a);
  (void)io::save_checkpoint(b, cs->rank_sim(0));
  EXPECT_EQ(io::read_file(a), io::read_file(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ClusterCheckpoint, RejectedFileLeavesEveryRankUntouched) {
  // A broken blob of one rank's blocks: the check pass of every rank agrees
  // before any grid is written.
  const auto cs = cloud_cluster(CartTopology(2, 2, 1));
  const std::string path = ::testing::TempDir() + "/mpcf_cluster_bad.ckp";
  (void)cs->save_checkpoint(path);
  auto bytes = io::read_file(path);
  bytes[bytes.size() - 20] ^= 0x10;  // inside the last rank's blob
  {
    io::SafeFile f(path);
    f.write(bytes.data(), bytes.size());
    f.commit();
  }
  ClusterSimulation fresh(4, 4, 2, 16, CartTopology(2, 2, 1), cloud_params(BCType::kAbsorbing));
  Grid before(4, 4, 2, 16, 1e-3);
  fresh.gather(before);
  EXPECT_THROW(fresh.load_checkpoint(path), PreconditionError);
  Grid after(4, 4, 2, 16, 1e-3);
  fresh.gather(after);
  for (int b = 0; b < after.block_count(); ++b)
    ASSERT_EQ(std::memcmp(after.block(b).data(), before.block(b).data(),
                          after.block(b).cells() * sizeof(Cell)),
              0);
  EXPECT_EQ(fresh.time(), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcf::cluster
