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

/// Aggregate forwarder counters.
struct ForwarderCounters {
  std::uint64_t nInInterests = 0;
  std::uint64_t nOutInterests = 0;
  std::uint64_t nInData = 0;
  std::uint64_t nOutData = 0;
  std::uint64_t nCsHits = 0;
  std::uint64_t nCsMisses = 0;
  std::uint64_t nSatisfied = 0;
  std::uint64_t nUnsatisfied = 0;
  std::uint64_t nDuplicateNonce = 0;
  std::uint64_t nNoRoute = 0;
  std::uint64_t nUnsolicitedData = 0;
  /// Incoming Data dropped because its signature failed verification
  /// (poisoned packets never reach the CS or downstream consumers).
  std::uint64_t nIntegrityDrops = 0;
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
  [[nodiscard]] const ForwarderCounters& counters() const noexcept { return counters_; }

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
  /// Mirrors every ForwarderCounters increment into `registry` as
  /// lidc_forwarder_*{node=<name>} (live, one extra relaxed add per
  /// event), registers a collector that syncs the per-face aggregate
  /// FaceCounters plus CS/PIT gauges at snapshot time, and — when a
  /// tracer is given — records per-hop "forwarder-hop" instants for
  /// Interests carrying a TraceContext. The forwarder must outlive any
  /// snapshot of the registry.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  [[nodiscard]] telemetry::Tracer* tracer() noexcept {
    return telemetry_ ? telemetry_->tracer : nullptr;
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

  /// Live-mirror handles into an attached MetricsRegistry; null when
  /// telemetry is not attached (the common fast path).
  struct TelemetryHooks {
    telemetry::Counter* inInterests = nullptr;
    telemetry::Counter* outInterests = nullptr;
    telemetry::Counter* inData = nullptr;
    telemetry::Counter* outData = nullptr;
    telemetry::Counter* csHits = nullptr;
    telemetry::Counter* csMisses = nullptr;
    telemetry::Counter* satisfied = nullptr;
    telemetry::Counter* unsatisfied = nullptr;
    telemetry::Counter* duplicateNonce = nullptr;
    telemetry::Counter* noRoute = nullptr;
    telemetry::Counter* unsolicitedData = nullptr;
    telemetry::Counter* integrityDrops = nullptr;
    telemetry::Tracer* tracer = nullptr;
  };

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
  ForwarderCounters counters_;
  bool verify_data_ = true;
  std::unique_ptr<TelemetryHooks> telemetry_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::FlowAccountant* flow_ = nullptr;
  // Strategy-choice table; the root "/" choice is always first. It holds
  // a handful of namespaces, so findStrategy() scans it.
  struct StrategyChoice {
    Name prefix;
    std::unique_ptr<Strategy> strategy;
  };
  std::vector<StrategyChoice> strategies_;
};

}  // namespace lidc::ndn
