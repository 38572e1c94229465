#include "ndn/app_face.hpp"

#include <algorithm>

namespace lidc::ndn {

void AppFace::expressInterest(Interest interest, DataCallback onData,
                              NackCallback onNack, TimeoutCallback onTimeout) {
  if (interest.nonce() == 0) {
    interest.setNonce(static_cast<std::uint32_t>(nonce_rng_() & 0xFFFFFFFFu) | 1u);
  }

  const sim::Duration lifetime = interest.lifetime();
  pending_.push_back(Pending{std::move(interest), std::move(onData), std::move(onNack),
                             std::move(onTimeout), sim::EventHandle{}});
  auto it = std::prev(pending_.end());

  // App-level timeout mirrors the Interest lifetime.
  it->timeoutEvent = sim_.scheduleAfter(lifetime, [this, it] {
    Pending pending = std::move(*it);
    pending_.erase(it);
    if (pending.onTimeout) pending.onTimeout(pending.interest);
  });

  // Into the forwarder.
  receiveInterest(it->interest);
}

void AppFace::abandonPending() noexcept {
  for (Pending& pending : pending_) pending.timeoutEvent.cancel();
  pending_.clear();
}

void AppFace::putData(Data data) {
  if (!data.verify()) data.sign();
  receiveData(data);
}

void AppFace::putNack(const Interest& interest, NackReason reason) {
  receiveNack(Nack(interest, reason));
}

void AppFace::sendInterest(const Interest& interest) {
  countOutInterest(interest);
  if (interest_handler_) interest_handler_(interest);
}

AppFace::PendingList::iterator AppFace::findPendingForData(const Data& data) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    const bool match = it->interest.canBePrefix()
                           ? it->interest.name().isPrefixOf(data.name())
                           : it->interest.name() == data.name();
    if (!match) continue;
    // An Interest excluding this payload's digest is not satisfied by
    // it — otherwise an integrity re-fetch issued from inside a Data
    // callback would be consumed by the very poison it is escaping.
    if (it->interest.excludeDigest().has_value() &&
        *it->interest.excludeDigest() == data.contentDigest()) {
      continue;
    }
    return it;
  }
  return pending_.end();
}

AppFace::PendingList::iterator AppFace::findPendingForInterest(const Name& name) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->interest.name() == name) return it;
  }
  return pending_.end();
}

void AppFace::sendData(const Data& data) {
  countOutData(data);
  // All pending Interests this Data satisfies fire (typically one).
  while (true) {
    auto it = findPendingForData(data);
    if (it == pending_.end()) return;
    Pending pending = std::move(*it);
    pending_.erase(it);
    pending.timeoutEvent.cancel();
    if (pending.onData) pending.onData(pending.interest, data);
  }
}

void AppFace::sendNack(const Nack& nack) {
  countOutNack();
  auto it = findPendingForInterest(nack.interest().name());
  if (it == pending_.end()) return;
  Pending pending = std::move(*it);
  pending_.erase(it);
  pending.timeoutEvent.cancel();
  if (pending.onNack) pending.onNack(pending.interest, nack);
}

}  // namespace lidc::ndn
