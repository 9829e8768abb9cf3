// Transport conformance suite (DESIGN.md §12): every behavioural guarantee
// of the Transport contract, run against BOTH backends — the in-memory
// mailbox (the oracle whose semantics define correctness) and the POSIX
// shared-memory backend (ranks as threads over one segment; one process, so
// the suite runs inside plain ctest and under TSan). Whatever the oracle
// promises, shm must match: per-flow FIFO, tag isolation, chunked large
// messages, atomic try_recv, bitwise-deterministic collectives, recv-timeout
// errors that name the flow, and abort flags that break blocked waits.
#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim_comm.h"
#include "cluster/transport.h"
#include "cluster/transport_inmemory.h"
#include "cluster/transport_shm.h"

namespace mpcf::cluster {
namespace {

enum class Backend { kInMemory, kShm };

std::string backend_name(Backend b) {
  return b == Backend::kInMemory ? "InMemory" : "Shm";
}

/// Per-rank transport handles of one backend. In-memory: one shared instance
/// (every rank local to it). Shm: one segment + one attached transport per
/// rank, all in this process (the per-process mapping is shared, so the
/// atomics' ordering is visible to TSan).
class World {
 public:
  World(Backend backend, int nranks, std::size_t ring_bytes = std::size_t{1} << 16)
      : backend_(backend), nranks_(nranks) {
    if (backend == Backend::kInMemory) {
      auto t = std::make_shared<InMemoryTransport>(nranks);
      per_rank_.assign(nranks, t);
      instances_.push_back(t.get());
    } else {
      static std::atomic<int> counter{0};
      seg_ = "/mpcf-conf-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1));
      ShmTransport::create_segment({seg_, nranks, ring_bytes});
      for (int r = 0; r < nranks; ++r) {
        auto t = std::make_shared<ShmTransport>(seg_, r);
        per_rank_.push_back(t);
        instances_.push_back(t.get());
      }
    }
  }

  ~World() {
    per_rank_.clear();
    if (!seg_.empty()) ShmTransport::unlink_segment(seg_);
  }

  [[nodiscard]] Backend backend() const { return backend_; }
  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const std::string& segment() const { return seg_; }
  [[nodiscard]] Transport& at(int rank) { return *per_rank_[rank]; }
  [[nodiscard]] std::shared_ptr<Transport> share(int rank) { return per_rank_[rank]; }

  /// Runs `fn` once per DISTINCT transport instance, concurrently — the shape
  /// a collective call takes on each backend: the in-memory oracle is called
  /// once with every rank's contribution, shm once per rank with one each.
  void run_per_instance(const std::function<void(Transport&)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(instances_.size());
    for (Transport* t : instances_) threads.emplace_back([&fn, t] { fn(*t); });
    for (auto& th : threads) th.join();
  }

 private:
  Backend backend_;
  int nranks_;
  std::string seg_;
  std::vector<std::shared_ptr<Transport>> per_rank_;
  std::vector<Transport*> instances_;
};

class TransportConformance : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(Backend::kInMemory, Backend::kShm),
                         [](const auto& info) { return backend_name(info.param); });

TEST_P(TransportConformance, PerFlowFifoAcrossManyMessages) {
  World w(GetParam(), 2);
  for (int k = 0; k < 200; ++k)
    w.at(0).send(0, 1, 5, {static_cast<float>(k), static_cast<float>(2 * k)});
  for (int k = 0; k < 200; ++k) {
    const auto m = w.at(1).recv(0, 1, 5);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], static_cast<float>(k));
    EXPECT_EQ(m[1], static_cast<float>(2 * k));
  }
}

TEST_P(TransportConformance, TagsIsolateFlowsAndMatchOutOfArrivalOrder) {
  World w(GetParam(), 2);
  w.at(0).send(0, 1, 10, {1.0f});
  w.at(0).send(0, 1, 11, {2.0f});
  w.at(0).send(0, 1, 10, {3.0f});
  // Receive the later tag first: the tag-10 messages must park, unharmed
  // and still in order (the unexpected-message queue of the shm backend).
  EXPECT_EQ(w.at(1).recv(0, 1, 11), std::vector<float>{2.0f});
  EXPECT_EQ(w.at(1).recv(0, 1, 10), std::vector<float>{1.0f});
  EXPECT_EQ(w.at(1).recv(0, 1, 10), std::vector<float>{3.0f});
}

TEST_P(TransportConformance, LargeMessageSurvivesChunkingBitExactly) {
  // 1 MiB payload through 64 KiB rings: dozens of chunks, reassembled while
  // the concurrent receiver drains — payload must round-trip bit-exactly,
  // including non-arithmetic lanes (NaN payloads from pack_bytes).
  World w(GetParam(), 2);
  std::vector<std::uint8_t> bytes(1u << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  const auto payload = pack_bytes(bytes);

  std::thread receiver([&w, &bytes] {
    const auto m = w.at(1).recv(0, 1, 3);
    EXPECT_EQ(unpack_bytes(m), bytes);
  });
  w.at(0).send(0, 1, 3, payload);
  receiver.join();
}

TEST_P(TransportConformance, MessageLargerThanTheRingThenAnEmptyOneOnTheSameFlow) {
  // 256 KiB through 64 KiB rings, then a zero-length message on the same
  // flow: the partial message of the first must not leak into the second.
  World w(GetParam(), 2);
  std::vector<float> big(std::size_t{1} << 16);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<float>(i) * 0.5f;
  std::thread receiver([&w, &big] {
    EXPECT_EQ(w.at(1).recv(0, 1, 9), big);
    EXPECT_TRUE(w.at(1).recv(0, 1, 9).empty());
  });
  w.at(0).send(0, 1, 9, big);
  w.at(0).send(0, 1, 9, {});
  receiver.join();
}

TEST_P(TransportConformance, SelfSendDeliversWithoutDeadlock) {
  World w(GetParam(), 2);
  w.at(0).send(0, 0, 7, {42.0f});
  w.at(0).send(0, 0, 7, {43.0f});
  std::vector<float> got;
  EXPECT_TRUE(w.at(0).try_recv(0, 0, 7, got));
  EXPECT_EQ(got, std::vector<float>{42.0f});
  EXPECT_EQ(w.at(0).recv(0, 0, 7), std::vector<float>{43.0f});
}

TEST_P(TransportConformance, TryRecvIsAtomicAndExactlyOnce) {
  World w(GetParam(), 2);
  constexpr int kN = 500;
  for (int k = 0; k < kN; ++k) w.at(0).send(0, 1, 9, {static_cast<float>(k)});

  std::vector<std::atomic<int>> seen(kN);
  for (auto& s : seen) s.store(0);
  auto drain = [&] {
    std::vector<float> m;
    while (true) {
      if (!w.at(1).try_recv(0, 1, 9, m)) {
        bool done = true;
        for (const auto& s : seen)
          if (s.load() == 0) done = false;
        if (done) return;
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(m.size(), 1u);
      seen[static_cast<int>(m[0])].fetch_add(1);
    }
  };
  std::thread other(drain);
  drain();
  other.join();
  for (int k = 0; k < kN; ++k) EXPECT_EQ(seen[k].load(), 1) << "message " << k;
}

TEST_P(TransportConformance, CollectivesMatchSerialOracleOnEveryRank) {
  const int n = 4;
  World w(GetParam(), n);
  const std::vector<double> vals = {0.25, -3.5, 17.125, 2.0};

  // Serial oracle values.
  double omax = vals[0], osum = 0;
  for (double v : vals) omax = std::fmax(omax, v);
  for (double v : vals) osum += v;  // rank order, as the contract requires

  std::mutex mu;
  std::vector<double> got_max, got_sum;
  w.run_per_instance([&](Transport& t) {
    std::vector<double> dv;
    for (int r : t.local_ranks()) dv.push_back(vals[r]);
    const double m = t.allreduce_max(dv);
    const double s = t.allreduce_sum(dv);
    std::lock_guard<std::mutex> lock(mu);
    got_max.push_back(m);
    got_sum.push_back(s);
  });

  for (double m : got_max) EXPECT_EQ(m, omax);  // bitwise, not approx
  for (double s : got_sum) EXPECT_EQ(s, osum);
}

TEST_P(TransportConformance, RecvTimeoutThrowsNamingTheFlow) {
  World w(GetParam(), 3);
  w.at(2).set_timeout(0.05);
  try {
    (void)w.at(2).recv(1, 2, 13);
    FAIL() << "recv on an empty flow did not time out";
  } catch (const TransportError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 13"), std::string::npos) << msg;
  }
}

TEST_P(TransportConformance, StatsParityThroughSimComm) {
  // The same traffic pattern, accounted through the SimComm facade on each
  // backend: aggregated across processes, message and byte totals must be
  // identical (the scaling benches depend on this accounting).
  const int n = 3;
  std::uint64_t totals[2][2] = {};  // [backend][messages|bytes]
  for (Backend b : {Backend::kInMemory, Backend::kShm}) {
    World w(b, n);
    std::vector<std::unique_ptr<SimComm>> comms;
    if (b == Backend::kInMemory) {
      comms.push_back(std::make_unique<SimComm>(w.share(0)));
    } else {
      for (int r = 0; r < n; ++r)
        comms.push_back(std::make_unique<SimComm>(w.share(r)));
    }
    auto comm_of = [&](int r) -> SimComm& {
      return *comms[comms.size() == 1 ? 0 : static_cast<std::size_t>(r)];
    };
    for (int dst = 1; dst < n; ++dst) {
      comm_of(0).send(0, dst, 4, {1.0f, 2.0f, 3.0f});
      (void)comm_of(dst).recv(0, dst, 4);
    }
    const int bi = b == Backend::kInMemory ? 0 : 1;
    for (const auto& c : comms) {
      totals[bi][0] += c->stats().messages;
      totals[bi][1] += c->stats().bytes;
    }
  }
  EXPECT_EQ(totals[0][0], totals[1][0]);
  EXPECT_EQ(totals[0][1], totals[1][1]);
  EXPECT_EQ(totals[0][0], 2u);  // one send counted per message, once
}

// --- shm-specific guarantees (no in-memory analogue) -----------------------

TEST(ShmTransport, BarrierSequencesAllRanks) {
  const int n = 4;
  World w(Backend::kShm, n);
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  w.run_per_instance([&](Transport& t) {
    for (int round = 0; round < 50; ++round) {
      arrived.fetch_add(1);
      t.barrier();
      // After the barrier every rank of this round must have arrived.
      if (arrived.load() < (round + 1) * n) violated.store(true);
      t.barrier();  // keep rounds from overlapping
    }
  });
  EXPECT_FALSE(violated.load());
}

TEST(ShmTransport, ADeliveredMessageLeavesNoBufferBehind) {
  // A 32 MiB message through 1 MiB rings, received and dropped: the heap in
  // use (malloc'd bytes plus mmapped chunks) must come back to where it
  // was, so no receive buffer outlives its message.
  World w(Backend::kShm, 2, std::size_t{1} << 20);
  const auto heap_in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd);
  };
  const std::size_t floats = std::size_t{8} << 20;
  const double before = heap_in_use();
  {
    std::thread sender([&w, floats] { w.at(0).send(0, 1, 4, std::vector<float>(floats, 1.5f)); });
    const std::vector<float> m = w.at(1).recv(0, 1, 4);
    sender.join();
    ASSERT_EQ(m.size(), floats);
    EXPECT_EQ(m.front(), 1.5f);
    EXPECT_EQ(m.back(), 1.5f);
  }
  EXPECT_LT(heap_in_use() - before, 1048576.0)
      << "heap in use " << before / 1048576.0 << " -> " << heap_in_use() / 1048576.0 << " MiB";
}

TEST(ShmTransport, AbortedSegmentBreaksBlockedRecvQuickly) {
  World w(Backend::kShm, 2);
  w.at(1).set_timeout(30.0);  // the abort flag, not the timeout, must fire
  std::thread aborter([&w] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ShmTransport::mark_aborted(w.segment());
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)w.at(1).recv(0, 1, 2), TransportError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(waited, 5.0) << "abort flag took too long to break the wait";
  aborter.join();
}

TEST(ShmTransport, FinalizedPeerFailsRecvInsteadOfHanging) {
  World w(Backend::kShm, 2);
  w.at(1).set_timeout(30.0);
  std::thread finalizer([&w] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Rank 0 detaches cleanly without ever sending: waiting on it is futile.
    auto t = std::make_shared<ShmTransport>(w.segment(), 0);
    (void)t;  // ctor+dtor: attach, then finalize
  });
  finalizer.join();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)w.at(1).recv(0, 1, 2), TransportError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(waited, 5.0) << "finalized peer took too long to surface";
}

}  // namespace
}  // namespace mpcf::cluster
