#include "cluster/transport_shm.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

namespace mpcf::cluster {

namespace shm_detail {

namespace {

constexpr std::uint64_t kMagic = 0x4d504346'53484d31ull;  // "MPCFSHM1"
constexpr std::size_t kAlign = 64;
constexpr double kPollSliceSeconds = 0.02;  ///< liveness-check cadence in waits

constexpr std::size_t align_up(std::size_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }
constexpr std::uint64_t pad8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- futex ----------------------------------------------------------------
// Cross-process wakeups on shm words. The waits are bounded by the poll
// slice regardless, so the non-Linux fallback (plain sleep) only costs
// latency, never correctness.

#if defined(__linux__)
void futex_wait(const std::atomic<std::uint32_t>* word, std::uint32_t expected,
                double max_seconds) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(max_seconds);
  ts.tv_nsec = static_cast<long>((max_seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  // mpcf-lint: allow(reinterpret-cast): futex(2) operates on the raw 32-bit word of the shm atomic
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word), FUTEX_WAIT, expected,
          &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  // mpcf-lint: allow(reinterpret-cast): futex(2) operates on the raw 32-bit word of the shm atomic
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE, INT32_MAX,
          nullptr, nullptr, 0);
}
#else
void futex_wait(const std::atomic<std::uint32_t>* word, std::uint32_t expected,
                double max_seconds) {
  (void)word;
  (void)expected;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      std::min(max_seconds, 0.001)));
}
void futex_wake_all(std::atomic<std::uint32_t>*) {}
#endif

}  // namespace

// --- segment layout -------------------------------------------------------

struct SegHeader {
  std::atomic<std::uint64_t> magic;
  std::int32_t nranks;
  std::uint32_t pad_;
  std::uint64_t ring_bytes;
  std::atomic<std::uint32_t> aborted;
  std::atomic<std::uint32_t> bar_count;
  std::atomic<std::uint32_t> bar_gen;
};

struct alignas(kAlign) RingCtl {
  std::atomic<std::uint64_t> head;  ///< bytes produced (monotonic; producer-owned)
  char pad0[kAlign - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;  ///< bytes consumed (monotonic; consumer-owned)
  char pad1[kAlign - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint32_t> head_seq;  ///< futex word, bumped per head advance
  std::atomic<std::uint32_t> tail_seq;  ///< futex word, bumped per tail advance
  char pad2[kAlign - 2 * sizeof(std::atomic<std::uint32_t>)];
};

struct Frame {
  std::int64_t tag;
  std::uint64_t seq;          ///< per-(src,dst,tag) flow sequence number
  std::uint64_t total_bytes;  ///< full message payload size
  std::uint64_t chunk_bytes;  ///< payload bytes carried by this frame
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free &&
                  std::atomic<double>::is_always_lock_free &&
                  std::atomic<std::int32_t>::is_always_lock_free,
              "shm transport needs lock-free atomics on plain shared words");

struct Segment {
  std::string name;
  std::uint8_t* base = nullptr;
  std::size_t len = 0;
  int nranks = 0;
  std::size_t ring_bytes = 0;
  std::size_t off_pids = 0, off_final = 0, off_dslots = 0, off_rings = 0, ring_stride = 0;

  ~Segment() {
    if (base) ::munmap(base, len);
  }

  void compute_layout() {
    off_pids = align_up(sizeof(SegHeader));
    off_final = off_pids + sizeof(std::atomic<std::int32_t>) * nranks;
    off_dslots = align_up(off_final + sizeof(std::atomic<std::uint32_t>) * nranks);
    off_rings = align_up(off_dslots + sizeof(std::atomic<double>) * nranks);
    ring_stride = align_up(sizeof(RingCtl)) + align_up(ring_bytes);
    len = off_rings +
          ring_stride * static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks);
  }

  [[nodiscard]] SegHeader& header() const {
    // mpcf-lint: allow(reinterpret-cast): typed views into the mmap'd segment; layout is compute_layout()'s
    return *reinterpret_cast<SegHeader*>(base);
  }
  [[nodiscard]] std::atomic<std::int32_t>* pids() const {
    // mpcf-lint: allow(reinterpret-cast): typed views into the mmap'd segment; layout is compute_layout()'s
    return reinterpret_cast<std::atomic<std::int32_t>*>(base + off_pids);
  }
  [[nodiscard]] std::atomic<std::uint32_t>* finalized() const {
    // mpcf-lint: allow(reinterpret-cast): typed views into the mmap'd segment; layout is compute_layout()'s
    return reinterpret_cast<std::atomic<std::uint32_t>*>(base + off_final);
  }
  [[nodiscard]] std::atomic<double>* dslots() const {
    // mpcf-lint: allow(reinterpret-cast): typed views into the mmap'd segment; layout is compute_layout()'s
    return reinterpret_cast<std::atomic<double>*>(base + off_dslots);
  }
  [[nodiscard]] RingCtl& ring(int src, int dst) const {
    std::uint8_t* p = base + off_rings +
                      ring_stride * (static_cast<std::size_t>(src) * nranks + dst);
    // mpcf-lint: allow(reinterpret-cast): typed views into the mmap'd segment; layout is compute_layout()'s
    return *reinterpret_cast<RingCtl*>(p);
  }
  [[nodiscard]] std::uint8_t* ring_data(int src, int dst) const {
    return base + off_rings +
           ring_stride * (static_cast<std::size_t>(src) * nranks + dst) +
           align_up(sizeof(RingCtl));
  }
};

namespace {

// One mapping per (process, segment): rank-per-thread harnesses must share
// the mapping, or the atomics' happens-before would live at per-thread
// addresses invisible to each other (and to TSan).
Mutex g_registry_mu;
std::map<std::string, std::weak_ptr<Segment>>& registry() MPCF_REQUIRES(g_registry_mu) {
  static std::map<std::string, std::weak_ptr<Segment>> r;
  return r;
}

void ring_copy_in(std::uint8_t* ring, std::size_t cap, std::uint64_t pos,
                  const void* src, std::size_t n) {
  const std::size_t o = pos % cap;
  const std::size_t first = std::min(n, cap - o);
  std::memcpy(ring + o, src, first);
  if (n > first) std::memcpy(ring, static_cast<const std::uint8_t*>(src) + first,
                             n - first);
}

void ring_copy_out(void* dst, const std::uint8_t* ring, std::size_t cap,
                   std::uint64_t pos, std::size_t n) {
  const std::size_t o = pos % cap;
  const std::size_t first = std::min(n, cap - o);
  std::memcpy(dst, ring + o, first);
  if (n > first) std::memcpy(static_cast<std::uint8_t*>(dst) + first, ring, n - first);
}

[[nodiscard]] std::shared_ptr<Segment> map_segment(const std::string& name) {
  const LockGuard lock(g_registry_mu);
  if (auto live = registry()[name].lock()) return live;

  const int fd = ::shm_open(name.c_str(), O_RDWR, 0);
  require(fd >= 0, "ShmTransport: segment '" + name +
                       "' does not exist — create it with mpcf-run or create_segment()");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || static_cast<std::size_t>(st.st_size) < sizeof(SegHeader)) {
    ::close(fd);
    throw TransportError("ShmTransport: segment '" + name + "' is truncated");
  }
  void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                   PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  require(p != MAP_FAILED, "ShmTransport: mmap of '" + name + "' failed");

  auto seg = std::make_shared<Segment>();
  seg->name = name;
  seg->base = static_cast<std::uint8_t*>(p);
  seg->len = static_cast<std::size_t>(st.st_size);

  // The creator stores the magic last; a brief settle window tolerates a
  // racing attach.
  const Clock::time_point t0 = Clock::now();
  while (seg->header().magic.load(std::memory_order_acquire) != kMagic) {
    if (seconds_since(t0) > 2.0)
      throw TransportError("ShmTransport: segment '" + name + "' never initialized");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  seg->nranks = seg->header().nranks;
  seg->ring_bytes = static_cast<std::size_t>(seg->header().ring_bytes);
  const std::size_t mapped = seg->len;
  seg->compute_layout();
  require(seg->len == mapped, "ShmTransport: segment size does not match its header");
  registry()[name] = seg;
  return seg;
}

}  // namespace

}  // namespace shm_detail

using shm_detail::Frame;
using shm_detail::pad8;
using shm_detail::RingCtl;
using shm_detail::Segment;

// --- lifecycle ------------------------------------------------------------

void ShmTransport::create_segment(const Config& config) {
  require(!config.name.empty() && config.name[0] == '/',
          "ShmTransport: segment name must start with '/'");
  require(config.nranks > 0, "ShmTransport: positive rank count required");
  require(config.ring_bytes >= 4096 && config.ring_bytes % 8 == 0,
          "ShmTransport: ring_bytes must be >= 4096 and 8-aligned");

  ::shm_unlink(config.name.c_str());  // drop a stale segment of the same name
  const int fd = ::shm_open(config.name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  require(fd >= 0, "ShmTransport: shm_open('" + config.name +
                       "') failed: " + std::strerror(errno));

  Segment seg;
  seg.nranks = config.nranks;
  seg.ring_bytes = config.ring_bytes;
  seg.compute_layout();
  if (::ftruncate(fd, static_cast<off_t>(seg.len)) != 0) {
    ::close(fd);
    ::shm_unlink(config.name.c_str());
    throw TransportError("ShmTransport: ftruncate failed: " +
                         std::string(std::strerror(errno)));
  }
  void* p = ::mmap(nullptr, seg.len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) {
    ::shm_unlink(config.name.c_str());
    throw TransportError("ShmTransport: mmap failed during create");
  }
  // ftruncate zero-fills: every counter, pid slot, and ring starts at zero.
  seg.base = static_cast<std::uint8_t*>(p);
  seg.header().nranks = config.nranks;
  seg.header().ring_bytes = config.ring_bytes;
  seg.header().magic.store(shm_detail::kMagic, std::memory_order_release);
  seg.base = nullptr;  // keep the Segment dtor from unmapping twice
  ::munmap(p, seg.len);
}

void ShmTransport::mark_aborted(const std::string& name) {
  std::shared_ptr<Segment> seg;
  try {
    seg = shm_detail::map_segment(name);
  } catch (const std::exception&) {
    return;  // nothing to abort
  }
  seg->header().aborted.store(1, std::memory_order_release);
  shm_detail::futex_wake_all(&seg->header().bar_gen);
}

void ShmTransport::unlink_segment(const std::string& name) {
  ::shm_unlink(name.c_str());
}

ShmTransport::ShmTransport(const std::string& name, int rank)
    : seg_(shm_detail::map_segment(name)), rank_(rank), local_{rank} {
  require(rank >= 0 && rank < seg_->nranks,
          "ShmTransport: rank " + std::to_string(rank) + " outside [0," +
              std::to_string(seg_->nranks) + ")");
  partials_.resize(seg_->nranks);
  seg_->finalized()[rank_].store(0, std::memory_order_release);
  seg_->pids()[rank_].store(static_cast<std::int32_t>(::getpid()),
                            std::memory_order_release);
}

ShmTransport::~ShmTransport() {
  seg_->finalized()[rank_].store(1, std::memory_order_release);
  // Wake every peer that may be blocked on this rank (consumers of our
  // rings, producers into our rings, barrier waiters) so they observe the
  // finalized flag now instead of after a poll slice.
  for (int d = 0; d < seg_->nranks; ++d) {
    shm_detail::futex_wake_all(&seg_->ring(rank_, d).head_seq);
    shm_detail::futex_wake_all(&seg_->ring(d, rank_).tail_seq);
  }
  shm_detail::futex_wake_all(&seg_->header().bar_gen);
}

int ShmTransport::nranks() const noexcept { return seg_->nranks; }

// --- failure detection ----------------------------------------------------

void ShmTransport::check_liveness(int peer, const char* what) const {
  if (seg_->header().aborted.load(std::memory_order_acquire))
    throw TransportError(std::string(what) +
                         ": transport aborted (launcher observed a dead rank)");
  const std::int32_t pid = seg_->pids()[peer].load(std::memory_order_acquire);
  if (pid > 0 && ::kill(pid, 0) == -1 && errno == ESRCH)
    throw TransportError(std::string(what) + ": rank " + std::to_string(peer) +
                         " (pid " + std::to_string(pid) + ") is dead");
}

// --- point-to-point -------------------------------------------------------

void ShmTransport::send(int src, int dst, int tag, std::vector<float> data) {
  require(src == rank_, "ShmTransport::send: src " + std::to_string(src) +
                            " is not the local rank " + std::to_string(rank_));
  require(dst >= 0 && dst < seg_->nranks, "ShmTransport::send: dst out of range");

  std::uint64_t seq;
  {
    const LockGuard lock(send_mu_);
    seq = send_seq_[{dst, tag}]++;
  }

  if (dst == rank_) {
    // Self-flow (periodic 1-rank axis): deliver straight into staging — the
    // ring would otherwise deadlock against our own backpressure.
    const LockGuard lock(stage_mu_);
    const std::uint64_t expect = recv_seq_[{rank_, tag}]++;
    if (seq != expect)
      throw TransportError("ShmTransport: self-flow sequence break on tag " +
                           std::to_string(tag));
    staged_[{rank_, tag}].push_back(std::move(data));
    return;
  }

  RingCtl& rc = seg_->ring(rank_, dst);
  std::uint8_t* ring = seg_->ring_data(rank_, dst);
  const std::size_t cap = seg_->ring_bytes;
  const std::uint64_t max_chunk = (cap / 2 - sizeof(Frame)) & ~std::uint64_t{7};
  // mpcf-lint: allow(reinterpret-cast): float payload crosses the ring as raw bytes (memcpy only)
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::uint64_t total = data.size() * sizeof(float);

  const LockGuard lock(send_mu_);  // chunks of one message stay contiguous
  std::uint64_t sent = 0;
  bool first = true;
  while (first || sent < total) {
    first = false;
    const std::uint64_t chunk = std::min(total - sent, max_chunk);
    const std::uint64_t need = sizeof(Frame) + pad8(chunk);

    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      // order: relaxed — this side is the only head writer; the acquire on
      // tail below is what orders the reader's progress against our reuse.
      const std::uint64_t head = rc.head.load(std::memory_order_relaxed);
      const std::uint32_t ts = rc.tail_seq.load(std::memory_order_acquire);
      if (cap - (head - rc.tail.load(std::memory_order_acquire)) >= need) break;
      check_liveness(dst, "ShmTransport::send");
      if (shm_detail::seconds_since(t0) > timeout_)
        throw TransportError("ShmTransport::send: ring " + std::to_string(rank_) +
                             "->" + std::to_string(dst) + " full for " +
                             std::to_string(timeout_) +
                             " s — receiver stuck or dead (tag " +
                             std::to_string(tag) + ")");
      // mpcf-lint: allow(blocking-under-lock): designed backpressure — send_mu_ must stay
      // held across the full-ring wait so the chunks of one message stay contiguous;
      // the receiver never takes send_mu_, so this cannot deadlock.
      shm_detail::futex_wait(&rc.tail_seq, ts, shm_detail::kPollSliceSeconds);
    }

    // order: relaxed — same thread wrote head above under send_mu_.
    const std::uint64_t head = rc.head.load(std::memory_order_relaxed);
    const Frame f{tag, seq, total, chunk};
    shm_detail::ring_copy_in(ring, cap, head, &f, sizeof(f));
    if (chunk) shm_detail::ring_copy_in(ring, cap, head + sizeof(Frame), bytes + sent, chunk);
    rc.head.store(head + need, std::memory_order_release);
    rc.head_seq.fetch_add(1, std::memory_order_release);
    shm_detail::futex_wake_all(&rc.head_seq);
    sent += chunk;
  }
}

void ShmTransport::pump_locked(int src) {
  if (src == rank_) return;  // self-flows bypass the ring
  RingCtl& rc = seg_->ring(src, rank_);
  const std::uint8_t* ring = seg_->ring_data(src, rank_);
  const std::size_t cap = seg_->ring_bytes;

  for (;;) {
    // order: relaxed — this side is the only tail writer (consumer-owned
    // counter); head's acquire below pairs with the sender's release.
    const std::uint64_t tail = rc.tail.load(std::memory_order_relaxed);
    const std::uint64_t head = rc.head.load(std::memory_order_acquire);
    if (head - tail < sizeof(Frame)) return;

    Frame f;
    shm_detail::ring_copy_out(&f, ring, cap, tail, sizeof(f));
    if (f.chunk_bytes > cap || f.total_bytes % sizeof(float) != 0 ||
        f.chunk_bytes > f.total_bytes)
      throw TransportError("ShmTransport: corrupt frame in ring " +
                           std::to_string(src) + "->" + std::to_string(rank_));

    Partial& p = partials_[src];
    if (!p.active) {
      p.tag = f.tag;
      p.seq = f.seq;
      p.got = 0;
      p.payload.resize(f.total_bytes / sizeof(float));  // empty: moved out at delivery
      p.active = true;
    } else if (p.tag != f.tag || p.seq != f.seq ||
               p.payload.size() * sizeof(float) != f.total_bytes) {
      throw TransportError("ShmTransport: interleaved chunks in ring " +
                           std::to_string(src) + "->" + std::to_string(rank_));
    }
    if (f.chunk_bytes > f.total_bytes - p.got)
      throw TransportError("ShmTransport: chunks overrun their message in ring " +
                           std::to_string(src) + "->" + std::to_string(rank_));
    if (f.chunk_bytes)
      shm_detail::ring_copy_out(static_cast<std::uint8_t*>(static_cast<void*>(p.payload.data())) +
                                    p.got,
                                ring, cap, tail + sizeof(Frame), f.chunk_bytes);
    p.got += f.chunk_bytes;

    rc.tail.store(tail + sizeof(Frame) + pad8(f.chunk_bytes),
                  std::memory_order_release);
    rc.tail_seq.fetch_add(1, std::memory_order_release);
    shm_detail::futex_wake_all(&rc.tail_seq);

    if (p.got == f.total_bytes) {
      const FlowKey key{src, static_cast<int>(p.tag)};
      const std::uint64_t expect = recv_seq_[key]++;
      if (p.seq != expect)
        throw TransportError(
            "ShmTransport: flow (src " + std::to_string(src) + ", dst " +
            std::to_string(rank_) + ", tag " + std::to_string(key.tag) +
            ") delivered message #" + std::to_string(p.seq) + " but expected #" +
            std::to_string(expect));
      staged_[key].push_back(std::move(p.payload));
      p.payload = {};  // the moved-from vector, left holding nothing
      p.active = false;
    }
  }
}

std::vector<float> ShmTransport::recv(int src, int dst, int tag) {
  require(dst == rank_, "ShmTransport::recv: dst " + std::to_string(dst) +
                            " is not the local rank " + std::to_string(rank_));
  require(src >= 0 && src < seg_->nranks, "ShmTransport::recv: src out of range");
  const FlowKey key{src, tag};
  RingCtl& rc = seg_->ring(src, rank_);
  const auto t0 = std::chrono::steady_clock::now();

  for (;;) {
    // Load the futex word BEFORE draining: a producer that lands between the
    // drain and the wait bumps the word, so the wait returns immediately.
    const std::uint32_t hs = rc.head_seq.load(std::memory_order_acquire);
    {
      const LockGuard lock(stage_mu_);
      pump_locked(src);
      const auto it = staged_.find(key);
      if (it != staged_.end() && !it->second.empty()) {
        std::vector<float> out = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) staged_.erase(it);
        return out;
      }
      if (src != rank_ &&
          seg_->finalized()[src].load(std::memory_order_acquire))
        throw TransportError("ShmTransport::recv: rank " + std::to_string(src) +
                             " finalized without sending (dst " +
                             std::to_string(dst) + ", tag " + std::to_string(tag) +
                             ")");
    }
    check_liveness(src, "ShmTransport::recv");
    const double waited = shm_detail::seconds_since(t0);
    if (waited > timeout_)
      throw TransportError("recv timeout after " + std::to_string(timeout_) +
                           " s: no message from rank " + std::to_string(src) +
                           " to rank " + std::to_string(dst) + " with tag " +
                           std::to_string(tag));
    shm_detail::futex_wait(&rc.head_seq, hs,
                           std::min(shm_detail::kPollSliceSeconds,
                                    timeout_ - waited + 0.001));
  }
}

bool ShmTransport::try_recv(int src, int dst, int tag, std::vector<float>& out) {
  require(dst == rank_, "ShmTransport::try_recv: dst is not the local rank");
  require(src >= 0 && src < seg_->nranks, "ShmTransport::try_recv: src out of range");
  const LockGuard lock(stage_mu_);
  pump_locked(src);
  const auto it = staged_.find(FlowKey{src, tag});
  if (it == staged_.end() || it->second.empty()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) staged_.erase(it);
  return true;
}

// --- collectives ----------------------------------------------------------

void ShmTransport::barrier() {
  shm_detail::SegHeader& h = seg_->header();
  const std::uint32_t gen = h.bar_gen.load(std::memory_order_acquire);
  if (static_cast<int>(h.bar_count.fetch_add(1, std::memory_order_acq_rel)) + 1 ==
      seg_->nranks) {
    // order: relaxed — the release fetch_add on bar_gen below publishes the
    // reset; waiters only resume after observing the new generation.
    h.bar_count.store(0, std::memory_order_relaxed);
    h.bar_gen.fetch_add(1, std::memory_order_release);
    shm_detail::futex_wake_all(&h.bar_gen);
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (h.bar_gen.load(std::memory_order_acquire) == gen) {
    for (int r = 0; r < seg_->nranks; ++r)
      if (r != rank_) check_liveness(r, "ShmTransport::barrier");
    if (shm_detail::seconds_since(t0) > timeout_)
      throw TransportError("ShmTransport::barrier: timeout after " +
                           std::to_string(timeout_) + " s (a rank never arrived)");
    shm_detail::futex_wait(&h.bar_gen, gen, shm_detail::kPollSliceSeconds);
  }
}

double ShmTransport::rendezvous(double mine, double (*combine)(const double*, int)) {
  // Publication slots are typed atomics in the segment; the barriers fence
  // publish -> combine -> reuse, and every rank combines in rank order, so
  // all ranks return the bitwise-identical result.
  seg_->dslots()[rank_].store(mine, std::memory_order_release);
  barrier();
  std::vector<double> all(seg_->nranks);
  for (int r = 0; r < seg_->nranks; ++r)
    all[r] = seg_->dslots()[r].load(std::memory_order_acquire);
  const double out = combine(all.data(), seg_->nranks);
  barrier();
  return out;
}

double ShmTransport::allreduce_max(const std::vector<double>& contributions) {
  require(contributions.size() == 1,
          "ShmTransport::allreduce_max: exactly one contribution (the local rank's)");
  return rendezvous(contributions[0], [](const double* v, int n) {
    double m = v[0];
    for (int i = 1; i < n; ++i) m = v[i] > m ? v[i] : m;
    return m;
  });
}

double ShmTransport::allreduce_sum(const std::vector<double>& contributions) {
  require(contributions.size() == 1,
          "ShmTransport::allreduce_sum: exactly one contribution (the local rank's)");
  return rendezvous(contributions[0], [](const double* v, int n) {
    double s = 0;
    for (int i = 0; i < n; ++i) s += v[i];  // rank order: deterministic
    return s;
  });
}

}  // namespace mpcf::cluster
