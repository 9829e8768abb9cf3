// In-memory transport backend: the original SimComm memcpy mailbox, now an
// instance of the Transport interface and the conformance oracle for every
// other backend. All ranks are local; point-to-point messages are byte
// buffers in per-(src,dst,tag) FIFO mailboxes, collectives operate directly
// on the complete per-rank contribution vectors, and recv blocks on a
// condition variable with the configured timeout so a withheld message is a
// diagnosable TransportError here exactly as on a real transport.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>

#include "cluster/transport.h"
#include "common/check.h"
#include "common/thread_safety.h"

namespace mpcf::cluster {

class InMemoryTransport final : public Transport {
 public:
  explicit InMemoryTransport(int nranks);

  [[nodiscard]] int nranks() const noexcept override { return nranks_; }
  [[nodiscard]] const std::vector<int>& local_ranks() const noexcept override {
    return local_;
  }

  void send(int src, int dst, int tag, std::vector<float> data) override;
  [[nodiscard]] std::vector<float> recv(int src, int dst, int tag) override;
  bool try_recv(int src, int dst, int tag, std::vector<float>& out) override;

  [[nodiscard]] double allreduce_max(const std::vector<double>& contributions) override;
  [[nodiscard]] double allreduce_sum(const std::vector<double>& contributions) override;
  void barrier() override {}  // single process: nothing to rendezvous

  void set_timeout(double seconds) override { timeout_ = seconds; }
  [[nodiscard]] double timeout() const noexcept override { return timeout_; }

 private:
  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  /// Pops the front message of the flow; caller holds mu_ and guarantees
  /// the mailbox is non-empty.
  std::vector<float> pop_locked(const Key& key) MPCF_REQUIRES(mu_);

  int nranks_;
  std::vector<int> local_;
  double timeout_ = default_timeout_seconds();
  Mutex mu_;
  // Mailboxes are FIFO queues: the fused step graph lets fast ranks run a
  // full RK stage ahead, so queues get deeper and pops must stay O(1).
  std::map<Key, std::deque<std::vector<float>>> mailboxes_ MPCF_GUARDED_BY(mu_);
  std::condition_variable cv_;
#if MPCF_CHECKED
  /// Sequencing guard (checked builds only): every message of a (src,dst,
  /// tag) flow carries a send-side sequence number, and recv asserts it pops
  /// them gap-free in order. Trivially true of a deque — the point is that
  /// it STAYS true through transport refactors (out-of-order drains, lost
  /// wakeups, double-pops all trip it immediately).
  struct SeqState {
    std::uint64_t next_send = 0;
    std::uint64_t next_recv = 0;
    std::deque<std::uint64_t> in_flight;  ///< parallels the mailbox deque
  };
  std::map<Key, SeqState> seq_ MPCF_GUARDED_BY(mu_);
#endif
};

}  // namespace mpcf::cluster
