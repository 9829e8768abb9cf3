// Pluggable message transport behind SimComm (paper Section 6: the cluster
// layer's MPI substitute). Two backends implement this interface:
//
//   InMemoryTransport  — the original memcpy mailbox; every rank is local to
//                        the process. Kept as the test oracle: semantics on
//                        this backend define correct behaviour for all others.
//   ShmTransport       — POSIX shared-memory inter-process backend: N ranks
//                        run as N processes (one rank local per transport),
//                        launched by tools/mpcf-run.
//
// The contract mirrors non-blocking MPI point-to-point plus the two
// collectives the solver needs (max-allreduce for DT and the diagnostics
// maxima, rank-order sum-allreduce for the diagnostics sums) and a barrier.
// Ranks are global; a transport instance can act only for its
// local_ranks(): send requires a local src, recv/try_recv a local dst, and
// collectives take one contribution per
// local rank (in local_ranks() order) and return results for exactly those
// ranks. On the in-memory backend every rank is local, which makes the
// all-rank vector collectives of the original SimComm a special case of the
// same signature.
//
// Failure semantics: recv blocks until a matching message arrives or the
// configured timeout expires, then throws TransportError naming the
// (src,dst,tag) flow — a late or lost message is a diagnosable error on any
// transport, never a silent deadlock. Backends that can observe peer death
// (shm: registered pids + aborted flag set by mpcf-run) convert it into an
// immediate TransportError instead of waiting out the timeout.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"

namespace mpcf::cluster {

/// Thrown on transport-level failures: receive timeout, dead or finalized
/// peer, aborted segment, ring overflow against a stuck receiver.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- Tag schema -----------------------------------------------------------
//
// Tags below kHaloTagBase are control-plane flows (gather/scatter, blobs).
// Halo traffic encodes the RK stage epoch into the tag so a fast rank
// running a full stage ahead can never alias the previous stage's messages,
// even on an out-of-order transport: tag = kHaloTagBase + epoch*6 + face.
constexpr int kTagGather = 0;   ///< rank -> root subdomain boxes (gather)
constexpr int kTagScatter = 1;  ///< root -> rank subdomain boxes (scatter)
constexpr int kTagBlobs = 3;    ///< rank -> root directory entries, then blobs
constexpr int kHaloTagBase = 8;
constexpr int kFaceTags = 6;  ///< 3 axes x 2 receiver sides

/// Halo message tag for the receiver-side face (axis, side) of stage `epoch`.
constexpr int halo_tag(int axis, int receiver_side, long epoch) {
  return kHaloTagBase + static_cast<int>(epoch) * kFaceTags + axis * 2 + receiver_side;
}
constexpr bool is_halo_tag(int tag) { return tag >= kHaloTagBase; }
constexpr long halo_tag_epoch(int tag) { return (tag - kHaloTagBase) / kFaceTags; }
constexpr int halo_tag_face(int tag) { return (tag - kHaloTagBase) % kFaceTags; }

// --- Byte payload packing -------------------------------------------------
//
// The wire payload is a float vector (halo slabs are float data). Control
// flows (directory entries, blobs) carry arbitrary bytes; these two
// helpers pack them losslessly: a u64 byte count in the first two lanes,
// then the raw bytes memcpy'd across the remaining lanes. No float
// arithmetic ever touches the lanes, so arbitrary bit patterns survive.
[[nodiscard]] inline std::vector<float> pack_bytes(const std::vector<std::uint8_t>& b) {
  const std::uint64_t n = b.size();
  std::vector<float> out(2 + (b.size() + sizeof(float) - 1) / sizeof(float));
  std::memcpy(out.data(), &n, sizeof(n));
  if (!b.empty()) std::memcpy(out.data() + 2, b.data(), b.size());
  return out;
}

[[nodiscard]] inline std::vector<std::uint8_t> unpack_bytes(const std::vector<float>& f) {
  require(f.size() >= 2, "unpack_bytes: truncated payload");
  std::uint64_t n = 0;
  std::memcpy(&n, f.data(), sizeof(n));
  require(n <= (f.size() - 2) * sizeof(float), "unpack_bytes: corrupt byte count");
  std::vector<std::uint8_t> out(n);
  if (n) std::memcpy(out.data(), f.data() + 2, n);
  return out;
}

// --- The interface --------------------------------------------------------

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int nranks() const noexcept = 0;
  /// Ranks this process drives. In-memory: all of [0, nranks). Shm: one.
  [[nodiscard]] virtual const std::vector<int>& local_ranks() const noexcept = 0;

  /// Non-blocking send from local rank `src` (enqueue / ring write).
  virtual void send(int src, int dst, int tag, std::vector<float> data) = 0;

  /// Blocking matched receive at local rank `dst`: waits up to the
  /// configured timeout, then throws TransportError naming (src,dst,tag).
  /// Messages of one (src,dst,tag) flow arrive in send order.
  [[nodiscard]] virtual std::vector<float> recv(int src, int dst, int tag) = 0;

  /// Atomic non-blocking matched receive: pops into `out` iff a message is
  /// waiting; never throws on an empty flow. A single operation, so safe
  /// under concurrent drains of the same flow.
  virtual bool try_recv(int src, int dst, int tag, std::vector<float>& out) = 0;

  /// Max-allreduce: one contribution per local rank (local_ranks() order);
  /// returns the global maximum (identical bit pattern on every rank).
  [[nodiscard]] virtual double allreduce_max(const std::vector<double>& contributions) = 0;

  /// Sum-allreduce with a deterministic rank-order reduction tree (so every
  /// rank computes the bitwise-same total).
  [[nodiscard]] virtual double allreduce_sum(const std::vector<double>& contributions) = 0;

  /// Barrier across all ranks.
  virtual void barrier() = 0;

  /// Blocking-call timeout in seconds (recv, collective rendezvous, ring
  /// backpressure). The default comes from MPCF_RECV_TIMEOUT_MS (30 s when
  /// unset).
  virtual void set_timeout(double seconds) = 0;
  [[nodiscard]] virtual double timeout() const noexcept = 0;
};

/// Default blocking timeout: MPCF_RECV_TIMEOUT_MS env override, else 30 s.
[[nodiscard]] double default_timeout_seconds();

/// Transport selected by the environment: MPCF_TRANSPORT=shm attaches to the
/// segment described by MPCF_SHM_NAME / MPCF_RANK / MPCF_NRANKS (exported by
/// tools/mpcf-run) and requires MPCF_NRANKS == nranks; anything else builds
/// the in-memory oracle driving all `nranks` in-process.
[[nodiscard]] std::shared_ptr<Transport> make_env_transport(int nranks);

}  // namespace mpcf::cluster
