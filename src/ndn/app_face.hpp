// Application endpoint face, modeled on the ndn-cxx Face API: consumers
// call expressInterest() with callbacks, producers install an Interest
// handler and answer with putData(). LIDC clients, gateways, and data
// lake file servers all sit on AppFaces.
#pragma once

#include <functional>
#include <list>
#include <memory>

#include "common/rng.hpp"
#include "ndn/face.hpp"
#include "sim/simulator.hpp"

namespace lidc::ndn {

class AppFace : public Face {
 public:
  using DataCallback = std::function<void(const Interest&, const Data&)>;
  using NackCallback = std::function<void(const Interest&, const Nack&)>;
  using TimeoutCallback = std::function<void(const Interest&)>;
  using InterestHandler = std::function<void(const Interest&)>;

  AppFace(std::string uri, sim::Simulator& sim, std::uint64_t nonceSeed = 1)
      : Face(std::move(uri)), sim_(sim), nonce_rng_(nonceSeed) {}

  /// Consumer side: sends an Interest into the forwarder; exactly one of
  /// onData / onNack / onTimeout will fire.
  void expressInterest(Interest interest, DataCallback onData,
                       NackCallback onNack = nullptr,
                       TimeoutCallback onTimeout = nullptr);

  /// Producer side: receives Interests the forwarder routes to this face.
  void setInterestHandler(InterestHandler handler) {
    interest_handler_ = std::move(handler);
  }

  /// Producer side: publishes Data back into the forwarder.
  void putData(Data data);

  /// Producer side: sends a Nack for an Interest this app cannot serve.
  void putNack(const Interest& interest, NackReason reason);

  /// Drops every pending Interest without firing its callbacks, for an
  /// owner going away while the face stays in the forwarder.
  void abandonPending() noexcept;

  [[nodiscard]] std::size_t pendingInterestCount() const noexcept {
    return pending_.size();
  }

  // --- Face overrides: forwarder -> application delivery ---
  void sendInterest(const Interest& interest) override;
  void sendData(const Data& data) override;
  void sendNack(const Nack& nack) override;

 private:
  struct Pending {
    Interest interest;
    DataCallback onData;
    NackCallback onNack;
    TimeoutCallback onTimeout;
    sim::EventHandle timeoutEvent;
  };
  using PendingList = std::list<Pending>;

  /// Matches a Data/Nack against pending Interests; returns end() if none.
  PendingList::iterator findPendingForData(const Data& data);
  PendingList::iterator findPendingForInterest(const Name& name);

  sim::Simulator& sim_;
  Rng nonce_rng_;
  PendingList pending_;
  InterestHandler interest_handler_;
};

}  // namespace lidc::ndn
