#include "cluster/sim_comm.h"

#include <algorithm>

#include "cluster/transport_inmemory.h"
#include "core/profile.h"

namespace mpcf::cluster {

SimComm::SimComm(int nranks)
    : transport_(std::make_shared<InMemoryTransport>(nranks)) {}

SimComm::SimComm(std::shared_ptr<Transport> transport)
    : transport_(std::move(transport)) {
  require(transport_ != nullptr, "SimComm: null transport");
}

bool SimComm::is_local(int rank) const noexcept {
  const std::vector<int>& local = transport_->local_ranks();
  return std::find(local.begin(), local.end(), rank) != local.end();
}

#if MPCF_CHECKED
void SimComm::check_epoch_locked(EpochMap& last, int src, int dst, int tag,
                                 const char* who) const {
  if (!is_halo_tag(tag)) return;
  const long epoch = halo_tag_epoch(tag);
  const auto [it, fresh] =
      last.try_emplace(std::make_tuple(src, dst, halo_tag_face(tag)), epoch);
  if (fresh) return;
  MPCF_CHECK(epoch >= it->second,
             std::string(who) + ": halo epoch regressed from " +
                 std::to_string(it->second) + " to " + std::to_string(epoch) +
                 " on flow (src " + std::to_string(src) + ", dst " + std::to_string(dst) +
                 ", face " + std::to_string(halo_tag_face(tag)) + ")");
  it->second = epoch;
}
#endif

void SimComm::send(int src, int dst, int tag, std::vector<float> data) {
  require(src >= 0 && src < size() && dst >= 0 && dst < size(),
          "SimComm::send: rank out of range");
  {
    const LockGuard lock(mu_);
    stats_.messages++;
    stats_.bytes += data.size() * sizeof(float);
#if MPCF_CHECKED
    check_epoch_locked(sent_epoch_, src, dst, tag, "SimComm::send");
#endif
  }
  transport_->send(src, dst, tag, std::move(data));
}

std::vector<float> SimComm::recv(int src, int dst, int tag) {
  Timer timer;
  MPCF_CHECK(src >= 0 && src < size() && dst >= 0 && dst < size(),
             "SimComm::recv rank (" + std::to_string(src) + "->" +
                 std::to_string(dst) + ") outside [0," + std::to_string(size()) + ")");
  std::vector<float> data = transport_->recv(src, dst, tag);
  const LockGuard lock(mu_);
#if MPCF_CHECKED
  check_epoch_locked(recv_epoch_, src, dst, tag, "SimComm::recv");
#endif
  stats_.recv_seconds += timer.seconds();
  return data;
}

bool SimComm::try_recv(int src, int dst, int tag, std::vector<float>& out) {
  Timer timer;
  MPCF_CHECK(src >= 0 && src < size() && dst >= 0 && dst < size(),
             "SimComm::try_recv rank (" + std::to_string(src) + "->" +
                 std::to_string(dst) + ") outside [0," + std::to_string(size()) + ")");
  const bool got = transport_->try_recv(src, dst, tag, out);
  if (got) {
    const LockGuard lock(mu_);
#if MPCF_CHECKED
    check_epoch_locked(recv_epoch_, src, dst, tag, "SimComm::try_recv");
#endif
    stats_.recv_seconds += timer.seconds();
  }
  return got;
}

double SimComm::allreduce_max(const std::vector<double>& contributions) const {
  {
    const LockGuard lock(mu_);
    stats_.collectives++;
  }
  return transport_->allreduce_max(contributions);
}

double SimComm::allreduce_sum(const std::vector<double>& contributions) const {
  {
    const LockGuard lock(mu_);
    stats_.collectives++;
  }
  return transport_->allreduce_sum(contributions);
}

void SimComm::barrier() const { transport_->barrier(); }

}  // namespace mpcf::cluster
