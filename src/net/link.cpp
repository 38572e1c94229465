#include "net/link.hpp"

#include <algorithm>
#include <utility>

namespace lidc::net {

std::pair<ndn::FaceId, ndn::FaceId> Link::connect(sim::Simulator& sim,
                                                  ndn::Forwarder& a,
                                                  ndn::Forwarder& b, LinkParams params,
                                                  std::shared_ptr<Link>* out,
                                                  std::uint64_t lossSeed) {
  auto link = std::make_shared<Link>(sim, params, lossSeed);
  auto faceA =
      std::make_shared<LinkFace>("link://" + a.name() + "->" + b.name(), link, 0);
  auto faceB =
      std::make_shared<LinkFace>("link://" + b.name() + "->" + a.name(), link, 1);
  link->ends_[0] = faceA.get();
  link->ends_[1] = faceB.get();
  const ndn::FaceId idA = a.addFace(faceA);
  const ndn::FaceId idB = b.addFace(faceB);
  if (out != nullptr) *out = link;
  return {idA, idB};
}

void Link::setUp(bool up) {
  up_ = up;
  for (auto* end : ends_) {
    if (end != nullptr) end->setUp(up);
  }
}

sim::Duration Link::transitDelay(std::size_t bytes, int direction) {
  sim::Duration serialization;
  if (params_.bandwidthBitsPerSec > 0) {
    serialization =
        sim::Duration::seconds(static_cast<double>(bytes) * 8.0 /
                               params_.bandwidthBitsPerSec);
  }
  // FIFO serialization per direction: packets queue behind earlier ones.
  const sim::Time depart = std::max(sim_.now(), next_free_[direction]);
  next_free_[direction] = depart + serialization;
  return (depart - sim_.now()) + serialization + params_.latency;
}

template <class F>
bool LinkFace::scheduleDelivery(std::size_t bytes, F&& deliver) {
  if (!link_->up_ || !isUp()) return false;
  if (link_->shouldDrop()) {
    ++link_->dropped_;
    return false;
  }
  const sim::Duration delay = link_->transitDelay(bytes, direction_);
  ++link_->delivered_;
  link_->sim_.scheduleAfter(delay, std::forward<F>(deliver));
  return true;
}

// Each send copies the packet once, into the delivery closure, which is
// only moved after that.
void LinkFace::sendInterest(const ndn::Interest& interest) {
  countOutInterest(interest);
  LinkFace* remote = peer();
  if (remote == nullptr) return;
  scheduleDelivery(interest.wireSize(), [remote, interest = ndn::Interest(interest)] {
    remote->receiveInterest(interest);
  });
}

void Link::maybeCorrupt(ndn::Data& data) {
  if (params_.corruptRate <= 0 || data.content().empty() ||
      !corrupt_rng_.bernoulli(params_.corruptRate)) {
    return;
  }
  std::vector<std::uint8_t> content = data.content();
  const std::size_t byte = corrupt_rng_.uniform(content.size());
  content[byte] ^= static_cast<std::uint8_t>(1u << corrupt_rng_.uniform(8));
  // setContent leaves any existing signature untouched, so the stale
  // digest travels with the damaged payload — exactly what a bit-flip
  // below the signature does on a real wire.
  data.setContent(std::move(content));
  ++corrupted_;
}

void LinkFace::sendData(const ndn::Data& data) {
  countOutData(data);
  LinkFace* remote = peer();
  if (remote == nullptr) return;
  ndn::Data delivered = data;
  link_->maybeCorrupt(delivered);
  const std::size_t bytes = delivered.wireSize();
  scheduleDelivery(bytes, [remote, delivered = std::move(delivered)] {
    remote->receiveData(delivered);
  });
}

void LinkFace::sendNack(const ndn::Nack& nack) {
  countOutNack();
  LinkFace* remote = peer();
  if (remote == nullptr) return;
  // Nacks are small control packets; use the Interest's wire size.
  scheduleDelivery(nack.interest().wireSize(), [remote, nack = ndn::Nack(nack)] {
    remote->receiveNack(nack);
  });
}

}  // namespace lidc::net
