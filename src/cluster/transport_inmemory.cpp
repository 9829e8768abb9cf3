#include "cluster/transport_inmemory.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace mpcf::cluster {

InMemoryTransport::InMemoryTransport(int nranks) : nranks_(nranks), local_(nranks) {
  require(nranks > 0, "InMemoryTransport: positive rank count required");
  std::iota(local_.begin(), local_.end(), 0);
}

std::vector<float> InMemoryTransport::pop_locked(const Key& key) {
  const auto it = mailboxes_.find(key);
  std::vector<float> data = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) mailboxes_.erase(it);
#if MPCF_CHECKED
  SeqState& ss = seq_[key];
  MPCF_CHECK(!ss.in_flight.empty(),
             "transport sequencing: recv with no tracked in-flight message (src " +
                 std::to_string(key.src) + ", dst " + std::to_string(key.dst) +
                 ", tag " + std::to_string(key.tag) + ")");
  const std::uint64_t seq = ss.in_flight.front();
  ss.in_flight.pop_front();
  MPCF_CHECK(seq == ss.next_recv,
             "transport sequencing: popped message #" + std::to_string(seq) +
                 " but expected #" + std::to_string(ss.next_recv) + " (src " +
                 std::to_string(key.src) + ", dst " + std::to_string(key.dst) +
                 ", tag " + std::to_string(key.tag) + ")");
  ss.next_recv++;
#endif
  return data;
}

void InMemoryTransport::send(int src, int dst, int tag, std::vector<float> data) {
  require(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_,
          "InMemoryTransport::send: rank out of range");
  {
    const LockGuard lock(mu_);
    mailboxes_[Key{src, dst, tag}].push_back(std::move(data));
#if MPCF_CHECKED
    SeqState& ss = seq_[Key{src, dst, tag}];
    ss.in_flight.push_back(ss.next_send++);
#endif
  }
  cv_.notify_all();
}

std::vector<float> InMemoryTransport::recv(int src, int dst, int tag) {
  const Key key{src, dst, tag};
  UniqueLock lock(mu_);
  const auto has_message = [&]() MPCF_REQUIRES(mu_) {
    const auto it = mailboxes_.find(key);
    return it != mailboxes_.end() && !it->second.empty();
  };
  if (!cv_.wait_for(lock.std_lock(), std::chrono::duration<double>(timeout_),
                    has_message))
    throw TransportError("recv timeout after " + std::to_string(timeout_) +
                         " s: no message from rank " + std::to_string(src) +
                         " to rank " + std::to_string(dst) + " with tag " +
                         std::to_string(tag));
  return pop_locked(key);
}

bool InMemoryTransport::try_recv(int src, int dst, int tag, std::vector<float>& out) {
  const Key key{src, dst, tag};
  const LockGuard lock(mu_);
  const auto it = mailboxes_.find(key);
  if (it == mailboxes_.end() || it->second.empty()) return false;
  out = pop_locked(key);
  return true;
}

double InMemoryTransport::allreduce_max(const std::vector<double>& contributions) {
  require(static_cast<int>(contributions.size()) == nranks_,
          "InMemoryTransport::allreduce_max: one contribution per rank required");
  return *std::max_element(contributions.begin(), contributions.end());
}

double InMemoryTransport::allreduce_sum(const std::vector<double>& contributions) {
  require(static_cast<int>(contributions.size()) == nranks_,
          "InMemoryTransport::allreduce_sum: one contribution per rank required");
  double acc = 0;
  for (const double v : contributions) acc += v;  // rank order: deterministic
  return acc;
}

}  // namespace mpcf::cluster
