// Communication facade of the cluster layer (see DESIGN.md §12): SimComm
// keeps the accounting the scaling benches rely on (message counts, bytes,
// receive wall-clock, stall time) and the MPCF_CHECKED invariants, and
// delegates the actual message motion to a pluggable Transport. The default
// backend is the in-memory mailbox (all ranks in-process, the test oracle);
// tools/mpcf-run swaps in the POSIX shared-memory backend via
// make_env_transport so N ranks run as N processes. All operations are
// thread-safe: the fused step graph packs and drains from concurrent
// scheduler tasks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "cluster/transport.h"
#include "common/check.h"
#include "common/error.h"
#include "common/thread_safety.h"

namespace mpcf::cluster {

class SimComm {
 public:
  /// In-process communicator over the in-memory transport (the historical
  /// behaviour: all `nranks` ranks live in this process).
  explicit SimComm(int nranks);
  /// Communicator over an explicit backend (shm for multi-process runs).
  explicit SimComm(std::shared_ptr<Transport> transport);

  [[nodiscard]] int size() const noexcept { return transport_->nranks(); }
  /// Ranks this process drives; see Transport::local_ranks().
  [[nodiscard]] const std::vector<int>& local_ranks() const noexcept {
    return transport_->local_ranks();
  }
  [[nodiscard]] bool is_local(int rank) const noexcept;

  /// Non-blocking send from local rank `src`.
  void send(int src, int dst, int tag, std::vector<float> data);

  /// Matching receive at local rank `dst`: blocks until the message arrives
  /// or the receive timeout expires (TransportError naming (src,dst,tag)).
  /// Messages of one (src,dst,tag) flow arrive in send order.
  [[nodiscard]] std::vector<float> recv(int src, int dst, int tag);

  /// Atomic non-blocking receive: pops into `out` iff a message is waiting.
  /// Safe under concurrent drains of one flow.
  bool try_recv(int src, int dst, int tag, std::vector<float>& out);

  /// Max-allreduce over contributions of this process's local ranks, in
  /// local_ranks() order (the DT reduction).
  [[nodiscard]] double allreduce_max(const std::vector<double>& contributions) const;

  /// Sum-allreduce, deterministic rank-order reduction.
  [[nodiscard]] double allreduce_sum(const std::vector<double>& contributions) const;

  /// Barrier across all ranks (no-op on the in-memory backend).
  void barrier() const;

  /// Receive timeout in seconds for blocking calls on the transport.
  void set_recv_timeout(double seconds) { transport_->set_timeout(seconds); }
  [[nodiscard]] double recv_timeout() const noexcept { return transport_->timeout(); }

  struct Stats {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t collectives = 0;
    /// Wall-clock spent inside recv calls (match + dequeue + blocking wait).
    /// On the fused step this is drain time hidden behind compute.
    double recv_seconds = 0;
    /// Wall-clock the step loop stalls on communication with no RHS work
    /// running (filled by the cluster layer: every exchange_halos() call,
    /// which is the full exchange on the staged oracle; zero on the fused
    /// step).
    double stall_seconds = 0;
  };
  [[nodiscard]] Stats stats() const {
    const LockGuard lock(mu_);
    return stats_;
  }
  void reset_stats() {
    const LockGuard lock(mu_);
    stats_ = Stats{};
  }
  /// Accounts step-loop stall time (see Stats::stall_seconds).
  void add_stall_time(double seconds) {
    const LockGuard lock(mu_);
    stats_.stall_seconds += seconds;
  }

 private:
#if MPCF_CHECKED
  /// Epoch-monotonicity guard (checked builds only): halo tags carry the RK
  /// stage epoch (transport.h tag schema), and within one (src,dst,face)
  /// flow the epoch must never step backwards — a regression here means a
  /// stale slab from a previous stage would alias into the current one.
  /// Sends and receives are tracked in separate maps, each monotone: the
  /// whole-step graph lets a rank send stage s+1 before its neighbour has
  /// received stage s, so the send side may lead the receive side.
  using EpochMap = std::map<std::tuple<int, int, int>, long>;
  void check_epoch_locked(EpochMap& last, int src, int dst, int tag,
                          const char* who) const MPCF_REQUIRES(mu_);
  EpochMap sent_epoch_ MPCF_GUARDED_BY(mu_);
  EpochMap recv_epoch_ MPCF_GUARDED_BY(mu_);
#endif

  std::shared_ptr<Transport> transport_;
  mutable Mutex mu_;  ///< guards stats_ (and the epoch maps when checked)
  mutable Stats stats_ MPCF_GUARDED_BY(mu_);
};

}  // namespace mpcf::cluster
