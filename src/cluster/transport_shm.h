// POSIX shared-memory inter-process transport: N ranks run as N processes
// (worker threads inside each), exchanging messages through one shm_open segment
// created by the launcher (tools/mpcf-run) or a test harness.
//
// Segment layout (offsets computed from nranks and ring_bytes, 64-aligned):
//
//   Header     magic (written last by create_segment), nranks, ring_bytes,
//              aborted flag (set by mpcf-run when a rank dies), a
//              sense-reversing barrier (count + generation futex word)
//   pids[]     one atomic pid per rank, registered on attach — peers poll
//              these with kill(pid, 0) to turn a dead rank into a
//              TransportError instead of a timeout
//   finalized[] set by a rank's clean detach; waiting on a finalized rank
//              that can no longer send is an immediate error
//   dslots[]   one double per rank: scratch for allreduce max/sum
//   rings[]    nranks*nranks SPSC byte rings, ring (src,dst) owned by the
//              src process as producer and dst process as consumer
//
// Each ring carries framed messages ({tag, seq, total, chunk} header + raw
// payload bytes, 8-aligned); messages larger than half the ring are chunked,
// and chunks of one message are contiguous because a process-local producer
// mutex serializes senders. Blocking waits use futex words (head_seq /
// tail_seq / barrier generation) with a bounded poll interval so every wait
// also watches the aborted flag and peer liveness; on non-Linux hosts the
// futex degrades to a yield/sleep poll with identical semantics.
//
// Receivers drain their rings into a process-local staging area keyed by
// (src, tag) — the classic unexpected-message queue — which is what makes
// tag matching order-independent: a fast rank's stage-(e+1) halo message
// parks in staging until the receiver finishes draining stage e. Per-flow
// send sequence numbers travel in the frame header and are verified on
// delivery, so reordering or loss inside the transport is detected on any
// build type, not only under MPCF_CHECKED.
#pragma once

#include <cstddef>
#include <deque>
#include <map>

#include "cluster/transport.h"
#include "common/thread_safety.h"

namespace mpcf::cluster {

namespace shm_detail {
struct Segment;  // mapped view + layout offsets (transport_shm.cpp)
}

class ShmTransport final : public Transport {
 public:
  struct Config {
    std::string name;  ///< shm name, e.g. "/mpcf-12345" (leading slash required)
    int nranks = 1;
    std::size_t ring_bytes = std::size_t{1} << 20;  ///< per-(src,dst) ring capacity
  };

  /// Creates and initializes the segment (launcher/test-harness side). The
  /// magic is stored last, so attachers never observe a half-built layout.
  static void create_segment(const Config& config);
  /// Flags the segment aborted (mpcf-run calls this when a rank dies); every
  /// blocked peer converts the flag into a TransportError within one poll.
  static void mark_aborted(const std::string& name);
  static void unlink_segment(const std::string& name);

  /// Attaches to `name` as `rank`. Within one process, attachments to the
  /// same segment share a single mapping (ranks-as-threads harnesses would
  /// otherwise hide the atomics' happens-before from TSan).
  ShmTransport(const std::string& name, int rank);
  ~ShmTransport() override;

  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  [[nodiscard]] int nranks() const noexcept override;
  [[nodiscard]] const std::vector<int>& local_ranks() const noexcept override {
    return local_;
  }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  void send(int src, int dst, int tag, std::vector<float> data) override;
  [[nodiscard]] std::vector<float> recv(int src, int dst, int tag) override;
  bool try_recv(int src, int dst, int tag, std::vector<float>& out) override;

  [[nodiscard]] double allreduce_max(const std::vector<double>& contributions) override;
  [[nodiscard]] double allreduce_sum(const std::vector<double>& contributions) override;
  void barrier() override;

  void set_timeout(double seconds) override { timeout_ = seconds; }
  [[nodiscard]] double timeout() const noexcept override { return timeout_; }

 private:
  struct FlowKey {
    int src, tag;
    bool operator<(const FlowKey& o) const {
      return src != o.src ? src < o.src : tag < o.tag;
    }
  };
  /// The message being copied out of one src ring, chunk by chunk, into
  /// the vector that is staged once it is whole: one copy out of the ring,
  /// and nothing retained after delivery.
  struct Partial {
    std::int64_t tag = 0;
    std::uint64_t seq = 0;
    std::uint64_t got = 0;  ///< payload bytes copied so far
    std::vector<float> payload;
    bool active = false;
  };

  /// Drains every complete frame currently in the (src -> rank_) ring into
  /// the staging area. Caller holds stage_mu_.
  void pump_locked(int src) MPCF_REQUIRES(stage_mu_);
  /// Throws TransportError if the segment is aborted or `peer` is dead /
  /// finalized while `what` still waits on it.
  void check_liveness(int peer, const char* what) const;
  /// Scratch-slot rendezvous shared by the collectives: publishes `mine`,
  /// barriers, combines all slots in rank order, barriers again.
  double rendezvous(double mine, double (*combine)(const double*, int));

  std::shared_ptr<shm_detail::Segment> seg_;
  int rank_;
  std::vector<int> local_;
  double timeout_ = default_timeout_seconds();

  Mutex send_mu_;  ///< serializes producers of this process's rings
  std::map<std::pair<int, int>, std::uint64_t> send_seq_
      MPCF_GUARDED_BY(send_mu_);  ///< (dst,tag) -> next

  Mutex stage_mu_;  ///< guards staging, partials, recv_seq_
  std::map<FlowKey, std::deque<std::vector<float>>> staged_ MPCF_GUARDED_BY(stage_mu_);
  std::vector<Partial> partials_ MPCF_GUARDED_BY(stage_mu_);  ///< one per src ring
  std::map<FlowKey, std::uint64_t> recv_seq_
      MPCF_GUARDED_BY(stage_mu_);  ///< next expected per flow
};

}  // namespace mpcf::cluster
