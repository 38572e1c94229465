// The NDN forwarding daemon (NFD) model: faces + PIT + FIB + CS + a
// strategy-choice table, wired through the standard incoming-Interest /
// incoming-Data / incoming-Nack pipelines. Each LIDC node — client hosts,
// network routers, and the cluster gateway NFD pods — runs one Forwarder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "ndn/cs.hpp"
#include "ndn/dead_nonce_list.hpp"
#include "ndn/face.hpp"
#include "ndn/fib.hpp"
#include "ndn/packet.hpp"
#include "ndn/pit.hpp"
#include "ndn/strategy.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lidc::ndn {

/// Aggregate forwarder counters, exported as lidc_forwarder_* once
/// telemetry is attached.
struct ForwarderCounters {
  telemetry::Counter nInInterests;
  telemetry::Counter nOutInterests;
  telemetry::Counter nInData;
  telemetry::Counter nOutData;
  telemetry::Counter nCsHits;
  telemetry::Counter nCsMisses;
  telemetry::Counter nSatisfied;
  telemetry::Counter nUnsatisfied;
  telemetry::Counter nDuplicateNonce;
  telemetry::Counter nNoRoute;
  telemetry::Counter nUnsolicitedData;
  /// Incoming Data dropped because its signature failed verification
  /// (poisoned packets never reach the CS or downstream consumers).
  telemetry::Counter nIntegrityDrops;
};

class Forwarder {
 public:
  Forwarder(std::string name, sim::Simulator& sim);
  ~Forwarder();
  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  // --- face management ---
  FaceId addFace(std::shared_ptr<Face> face);
  void removeFace(FaceId id);
  [[nodiscard]] Face* face(FaceId id) noexcept;
  [[nodiscard]] std::size_t faceCount() const noexcept { return faces_.size(); }

  // --- RIB-ish registration (paper: gateway registers /ndn/k8s/compute) ---
  void registerPrefix(const Name& prefix, FaceId face, std::uint64_t cost = 0);
  void unregisterPrefix(const Name& prefix, FaceId face);

  // --- strategy choice (per-namespace, longest-prefix match) ---
  void setStrategy(const Name& prefix, std::unique_ptr<Strategy> strategy);
  [[nodiscard]] Strategy& findStrategy(const Name& name);

  // --- tables ---
  [[nodiscard]] Pit& pit() noexcept { return pit_; }
  [[nodiscard]] Fib& fib() noexcept { return fib_; }
  [[nodiscard]] const Fib& fib() const noexcept { return fib_; }
  [[nodiscard]] ContentStore& cs() noexcept { return cs_; }
  [[nodiscard]] DeadNonceList& deadNonceList() noexcept { return dnl_; }
  [[nodiscard]] RttMeasurements& measurements() noexcept { return measurements_; }
  [[nodiscard]] const ForwarderCounters& counters() const noexcept {
    return *counters_;
  }

  /// Data-plane integrity enforcement (on by default): incoming Data
  /// whose signature fails verification is dropped and counted instead
  /// of being cached or satisfying PIT entries, and the CS rejects
  /// poisoned inserts. Turning it off restores the undefended baseline
  /// (bench_gray_failures measures the difference).
  void setDataVerification(bool enabled) noexcept {
    verify_data_ = enabled;
    cs_.setVerification(enabled);
  }
  [[nodiscard]] bool dataVerificationEnabled() const noexcept {
    return verify_data_;
  }

  // --- telemetry ---
  /// Exports ForwarderCounters into `registry` as
  /// lidc_forwarder_*{node=<name>}, registers a collector that sums the
  /// per-face FaceCounters and reads the CS/PIT at snapshot time, and —
  /// when a tracer is given — records per-hop "forwarder-hop" instants
  /// for Interests carrying a TraceContext.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  [[nodiscard]] telemetry::Tracer* tracer() noexcept {
    return tracer_;
  }

  /// Records forwarding failures (unsatisfied expiry, no-route nacks)
  /// into `recorder` for post-mortem alert windows. Null detaches.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Attaches the traffic observability plane: every "link://" face
  /// (current and future) gets a wait-free LinkFlowStats tap registered
  /// in `accountant` under its URI, and the Data pipelines attribute
  /// forwarded bytes to (group, tenant, tag) flows — CS-served bytes
  /// split from upstream-fetched ones. The accountant must outlive the
  /// forwarder's faces.
  void attachFlowAccounting(telemetry::FlowAccountant& accountant);
  [[nodiscard]] telemetry::FlowAccountant* flowAccountant() noexcept {
    return flow_;
  }

  // --- actions used by strategies ---
  void sendInterest(const std::shared_ptr<PitEntry>& entry, FaceId upstream);
  void sendNackDownstream(const std::shared_ptr<PitEntry>& entry, NackReason reason);

 private:
  // Pipelines (called via face receive handlers).
  void onIncomingInterest(Face& inFace, const Interest& interest);
  void onIncomingData(Face& inFace, const Data& data);
  void onIncomingNack(Face& inFace, const Nack& nack);
  void onInterestExpiry(std::weak_ptr<PitEntry> weakEntry);
  /// Records the entry's nonces in the Dead Nonce List before removal.
  void recordDeadNonces(const PitEntry& entry);

  void installHandlers(Face& face);
  /// Gives a link face its flow tap (no-op for app faces / no plane).
  void tapFace(Face& face);
  /// Attributes one outgoing Data's bytes on `outFace`'s link to the
  /// flow keyed by the Data name + the requesting Interest's label.
  void attributeData(Face& outFace, const Interest& interest,
                     const Data& data, bool fromCache);

  /// Records one "forwarder-hop" instant for a traced Interest.
  void hopInstant(const Interest& interest, const char* decision,
                  telemetry::SpanAttrs extra = {});

  std::string name_;
  sim::Simulator& sim_;
  FaceId next_face_id_ = 1;
  std::unordered_map<FaceId, std::shared_ptr<Face>> faces_;
  Pit pit_;
  Fib fib_;
  ContentStore cs_;
  DeadNonceList dnl_;
  RttMeasurements measurements_;
  std::shared_ptr<ForwarderCounters> counters_ = std::make_shared<ForwarderCounters>();
  bool verify_data_ = true;
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::FlowAccountant* flow_ = nullptr;
  // Strategy-choice table; the root "/" choice is always first. It holds
  // a handful of namespaces, so findStrategy() scans it.
  struct StrategyChoice {
    Name prefix;
    std::unique_ptr<Strategy> strategy;
  };
  std::vector<StrategyChoice> strategies_;
  telemetry::CollectorHandle collector_;
};

}  // namespace lidc::ndn
