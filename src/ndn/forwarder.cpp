#include "ndn/forwarder.hpp"

#include <array>
#include <cassert>

#include "common/logging.hpp"

namespace lidc::ndn {

Forwarder::Forwarder(std::string name, sim::Simulator& sim)
    : name_(std::move(name)), sim_(sim) {
  // Default strategy for the whole namespace, as in NFD.
  strategies_.push_back({Name("/"), std::make_unique<BestRouteStrategy>(*this)});
}

Forwarder::~Forwarder() = default;

FaceId Forwarder::addFace(std::shared_ptr<Face> face) {
  assert(face);
  const FaceId id = next_face_id_++;
  face->setId(id);
  installHandlers(*face);
  tapFace(*face);
  faces_.emplace(id, std::move(face));
  return id;
}

void Forwarder::removeFace(FaceId id) {
  fib_.removeFaceFromAll(id);
  measurements_.forget(id);
  faces_.erase(id);
}

Face* Forwarder::face(FaceId id) noexcept {
  auto it = faces_.find(id);
  return it == faces_.end() ? nullptr : it->second.get();
}

void Forwarder::registerPrefix(const Name& prefix, FaceId face, std::uint64_t cost) {
  fib_.insert(prefix, face, cost);
}

void Forwarder::unregisterPrefix(const Name& prefix, FaceId face) {
  fib_.removeNextHop(prefix, face);
}

void Forwarder::setStrategy(const Name& prefix, std::unique_ptr<Strategy> strategy) {
  assert(strategy);
  for (auto& choice : strategies_) {
    if (choice.prefix == prefix) {
      choice.strategy = std::move(strategy);
      return;
    }
  }
  strategies_.push_back({prefix, std::move(strategy)});
}

Strategy& Forwarder::findStrategy(const Name& name) {
  // Longest-prefix match; the root choice matches every name.
  const StrategyChoice* best = &strategies_.front();
  for (const auto& choice : strategies_) {
    if (choice.prefix.size() > best->prefix.size() && choice.prefix.isPrefixOf(name)) {
      best = &choice;
    }
  }
  return *best->strategy;
}

void Forwarder::attachTelemetry(telemetry::MetricsRegistry& registry,
                                telemetry::Tracer* tracer) {
  tracer_ = tracer;
  const telemetry::Labels labels{{"node", name_}};
  auto adopt = [&](const char* metric, telemetry::Counter& counter) {
    registry.adopt(metric, labels, {counters_, &counter});
  };
  ForwarderCounters& c = *counters_;
  adopt("lidc_forwarder_in_interests", c.nInInterests);
  adopt("lidc_forwarder_out_interests", c.nOutInterests);
  adopt("lidc_forwarder_in_data", c.nInData);
  adopt("lidc_forwarder_out_data", c.nOutData);
  adopt("lidc_forwarder_cs_hits", c.nCsHits);
  adopt("lidc_forwarder_cs_misses", c.nCsMisses);
  adopt("lidc_forwarder_satisfied", c.nSatisfied);
  adopt("lidc_forwarder_unsatisfied", c.nUnsatisfied);
  adopt("lidc_forwarder_duplicate_nonce", c.nDuplicateNonce);
  adopt("lidc_forwarder_no_route", c.nNoRoute);
  adopt("lidc_forwarder_unsolicited_data", c.nUnsolicitedData);
  adopt("lidc_integrity_drops_total", c.nIntegrityDrops);

  // Per-node sums over the faces' plain counters, and the CS/PIT's own
  // counts and sizes, are derived at snapshot time.
  collector_ = registry.registerCollector([this, &registry, labels] {
    using F = FaceCounters;
    for (const auto& [metric, field] :
         {std::pair{"lidc_face_in_interests", &F::nInInterests},
          {"lidc_face_out_interests", &F::nOutInterests},
          {"lidc_face_in_data", &F::nInData},
          {"lidc_face_out_data", &F::nOutData},
          {"lidc_face_in_nacks", &F::nInNacks},
          {"lidc_face_out_nacks", &F::nOutNacks},
          {"lidc_face_in_bytes", &F::nInBytes},
          {"lidc_face_out_bytes", &F::nOutBytes}}) {
      std::uint64_t sum = 0;
      for (const auto& [id, face] : faces_) sum += face->counters().*field;
      registry.counter(metric, labels).set(sum);
    }
    registry.gauge("lidc_cs_size", labels).set(static_cast<double>(cs_.size()));
    registry.gauge("lidc_pit_size", labels).set(static_cast<double>(pit_.size()));
    registry.counter("lidc_cs_hits", labels).set(cs_.hits());
    registry.counter("lidc_cs_misses", labels).set(cs_.misses());
    registry.counter("lidc_cs_poisoned_rejects_total", labels)
        .set(cs_.poisonedRejects());
    registry.counter("lidc_cs_poisoned_evictions_total", labels)
        .set(cs_.poisonedEvictions());
  });
}

void Forwarder::attachFlowAccounting(telemetry::FlowAccountant& accountant) {
  flow_ = &accountant;
  for (auto& [id, face] : faces_) tapFace(*face);
}

void Forwarder::tapFace(Face& face) {
  // Only point-to-point link faces carry a tap: app faces sit on the
  // node itself, so their traffic never crosses a physical link.
  if (flow_ == nullptr || face.uri().rfind("link://", 0) != 0) return;
  face.setFlowStats(flow_->registerLink(face.uri()));
}

void Forwarder::attributeData(Face& outFace, const Interest& interest,
                              const Data& data, bool fromCache) {
  if (flow_ == nullptr || outFace.flowStats() == nullptr) return;
  // extractFlowKey only ever reads a handful of leading components, so
  // a fixed stack buffer keeps this off the allocator.
  std::array<std::string_view, 16> comps;
  std::size_t count = 0;
  for (const auto& c : data.name()) {
    if (count == comps.size()) break;
    comps[count++] = std::string_view(
        reinterpret_cast<const char*>(c.value().data()), c.value().size());
  }
  flow_->attribute(
      outFace.uri(),
      telemetry::extractFlowKey(comps.data(), count, interest.flowLabel()),
      data.wireSize(), fromCache);
}

void Forwarder::hopInstant(const Interest& interest, const char* decision,
                           telemetry::SpanAttrs extra) {
  if (tracer_ == nullptr) return;
  const telemetry::TraceContext ctx = interest.traceContext();
  if (!ctx) return;
  telemetry::SpanAttrs attrs{{"decision", decision}};
  attrs.insert(attrs.end(), extra.begin(), extra.end());
  tracer_->instant("forwarder-hop", "forwarder:" + name_, ctx, std::move(attrs));
}

void Forwarder::installHandlers(Face& face) {
  face.onReceiveInterest = [this](Face& inFace, const Interest& interest) {
    onIncomingInterest(inFace, interest);
  };
  face.onReceiveData = [this](Face& inFace, const Data& data) {
    onIncomingData(inFace, data);
  };
  face.onReceiveNack = [this](Face& inFace, const Nack& nack) {
    onIncomingNack(inFace, nack);
  };
}

void Forwarder::onIncomingInterest(Face& inFace, const Interest& interest) {
  counters_->nInInterests.inc();
  LIDC_LOG(kTrace, "forwarder") << name_ << " <- Interest " << interest.name().toUri()
                                << " via face " << inFace.id();

  // Hop limit.
  if (interest.hopLimit() == 0) return;

  // The one full-name hash of this Interest: the Dead Nonce List, the
  // PIT and the Content Store all key on it, and the PIT entry keeps it
  // for erasure.
  const std::size_t nameHash = interest.name().hash();

  // Dead Nonce List: a nonce that looped back after its PIT entry was
  // consumed is still a duplicate.
  if (dnl_.has(nameHash, interest.nonce())) {
    counters_->nDuplicateNonce.inc();
    hopInstant(interest, "nack-duplicate");
    inFace.sendNack(Nack(interest, NackReason::kDuplicate));
    return;
  }

  auto [entry, isNew] = pit_.insert(interest, nameHash);

  // Loop detection by nonce.
  if (!isNew && entry->isDuplicateNonce(interest.nonce(), inFace.id())) {
    counters_->nDuplicateNonce.inc();
    hopInstant(interest, "nack-duplicate");
    inFace.sendNack(Nack(interest, NackReason::kDuplicate));
    return;
  }

  // Content Store lookup.
  if (auto cached = cs_.find(interest, nameHash, sim_.now())) {
    counters_->nCsHits.inc();
    hopInstant(interest, "cs-hit");
    if (isNew) pit_.erase(entry);
    counters_->nOutData.inc();
    attributeData(inFace, interest, *cached, /*fromCache=*/true);
    inFace.sendData(*cached);
    return;
  }
  counters_->nCsMisses.inc();

  const sim::Time expiry = sim_.now() + interest.lifetime();
  entry->insertInRecord(inFace.id(), interest.nonce(), expiry);

  if (isNew) {
    // Unsatisfy timer.
    std::weak_ptr<PitEntry> weak = entry;
    entry->expiryTimer =
        sim_.scheduleAfter(interest.lifetime(), [this, weak] { onInterestExpiry(weak); });
    findStrategy(interest.name()).afterReceiveInterest(interest, inFace, entry);
  } else if (!entry->hasOutRecords()) {
    // Entry exists but was never forwarded (e.g. all upstreams were down);
    // give the strategy another chance.
    findStrategy(interest.name()).afterReceiveInterest(interest, inFace, entry);
  } else {
    // Aggregated onto the in-flight Interest (no re-forwarding).
    hopInstant(interest, "pit-aggregate");
  }
}

void Forwarder::onIncomingData(Face& inFace, const Data& data) {
  counters_->nInData.inc();
  LIDC_LOG(kTrace, "forwarder") << name_ << " <- Data " << data.name().toUri()
                                << " via face " << inFace.id();

  // Integrity gate: a signed packet whose digest no longer matches was
  // corrupted in flight (or poisoned at a cache). Dropping it here —
  // before the CS and before PIT satisfaction — means the downstream
  // consumer sees a plain timeout and retries, and no cache along the
  // path ever stores the bad copy.
  if (verify_data_ && data.hasSignature() && !data.verify()) {
    counters_->nIntegrityDrops.inc();
    LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                  name_ + " integrity-drop " + data.name().toUri());
    return;
  }

  std::size_t nameHash = 0;
  auto matches = pit_.findMatches(data, nameHash);
  if (matches.empty()) {
    counters_->nUnsolicitedData.inc();
    return;  // unsolicited Data is dropped, as in NFD's default policy
  }

  cs_.insert(data, nameHash, sim_.now());

  for (const auto& entry : matches) {
    entry->expiryTimer.cancel();
    findStrategy(entry->name()).beforeSatisfyInterest(entry, inFace, data);
    for (const auto& in : entry->inRecords()) {
      if (in.face == inFace.id()) continue;
      if (auto* downstream = face(in.face); downstream != nullptr) {
        counters_->nOutData.inc();
        attributeData(*downstream, entry->interest(), data,
                      /*fromCache=*/false);
        downstream->sendData(data);
      }
    }
    counters_->nSatisfied.inc();
    recordDeadNonces(*entry);
    pit_.erase(entry);
  }
}

void Forwarder::recordDeadNonces(const PitEntry& entry) {
  for (const auto& in : entry.inRecords()) {
    dnl_.add(entry.nameHash(), in.nonce);
  }
  for (const auto& out : entry.outRecords()) {
    dnl_.add(entry.nameHash(), out.nonce);
  }
}

void Forwarder::onIncomingNack(Face& inFace, const Nack& nack) {
  auto entry = pit_.find(nack.interest());
  if (!entry) return;
  // Only meaningful if we actually sent on that face.
  if (entry->findOutRecord(inFace.id()) == nullptr) return;
  findStrategy(entry->name()).afterReceiveNack(nack, inFace, entry);
}

void Forwarder::onInterestExpiry(std::weak_ptr<PitEntry> weakEntry) {
  auto entry = weakEntry.lock();
  if (!entry) return;
  counters_->nUnsatisfied.inc();
  LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                name_ + " unsatisfied " + entry->interest().name().toUri());
  hopInstant(entry->interest(), "expire");
  findStrategy(entry->name()).onInterestTimeout(entry);
  recordDeadNonces(*entry);
  pit_.erase(entry);
}

void Forwarder::sendInterest(const std::shared_ptr<PitEntry>& entry, FaceId upstream) {
  auto* outFace = face(upstream);
  if (outFace == nullptr || !outFace->isUp()) return;

  Interest interest = entry->interest();
  // Decrement hop limit on the wire.
  if (interest.hopLimit() > 0) interest.setHopLimit(interest.hopLimit() - 1);

  entry->insertOutRecord(upstream, interest.nonce(), sim_.now());
  counters_->nOutInterests.inc();
  hopInstant(interest, "forward", {{"face", std::to_string(upstream)}});
  LIDC_LOG(kTrace, "forwarder") << name_ << " -> Interest " << interest.name().toUri()
                                << " via face " << upstream;
  outFace->sendInterest(interest);
}

void Forwarder::sendNackDownstream(const std::shared_ptr<PitEntry>& entry,
                                   NackReason reason) {
  counters_->nNoRoute.inc();
  LIDC_FR_EVENT(recorder_, kWarn, "forwarder",
                name_ + " nack " + std::string(nackReasonName(reason)) + " " +
                    entry->interest().name().toUri());
  hopInstant(entry->interest(), "nack",
             {{"reason", std::string(nackReasonName(reason))}});
  for (const auto& in : entry->inRecords()) {
    if (auto* downstream = face(in.face); downstream != nullptr) {
      downstream->sendNack(Nack(entry->interest(), reason));
    }
  }
  entry->expiryTimer.cancel();
  pit_.erase(entry);
}

}  // namespace lidc::ndn
