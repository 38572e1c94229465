// ComputeCluster: one LIDC cluster as deployed in the paper (SIV) — a
// Kubernetes cluster with a gateway NFD pod (here: the node's
// Forwarder + Gateway app), a PVC-backed data lake with its file
// server, and application images. This is the unit that joins the
// multi-cluster overlay.
#pragma once

#include <memory>
#include <string>

#include "core/gateway.hpp"
#include "core/predictor.hpp"
#include "datalake/file_server.hpp"
#include "datalake/object_store.hpp"
#include "genomics/datasets.hpp"
#include "genomics/magic_blast_app.hpp"
#include "k8s/cluster.hpp"
#include "ndn/forwarder.hpp"
#include "qos/admission.hpp"
#include "qos/tenant.hpp"
#include "telemetry/flow.hpp"
#include "telemetry/monitor.hpp"

namespace lidc::core {

struct ComputeClusterConfig {
  std::string name;
  int nodeCount = 1;  // the paper's default deployment is single-node
  k8s::Resources perNode{MilliCpu::fromCores(8), ByteSize::fromGiB(16)};
  ByteSize pvcCapacity = ByteSize::fromGiB(4);
  GatewayOptions gateway;
  genomics::MagicBlastConfig blast;
  /// Multi-tenant QoS: when set, the gateway registers the tenant-scoped
  /// /ndn/k8s/submit prefix and admits through a fair-share
  /// AdmissionController charging against this (federation-wide,
  /// caller-owned) registry. Null = untenanted gateway.
  qos::TenantRegistry* tenants = nullptr;
  qos::AdmissionOptions admission;
};

class ComputeCluster {
 public:
  /// Builds the cluster on an existing forwarder (typically a node of
  /// the overlay topology).
  ComputeCluster(ndn::Forwarder& forwarder, ComputeClusterConfig config);

  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
  [[nodiscard]] k8s::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] Gateway& gateway() noexcept { return *gateway_; }
  [[nodiscard]] datalake::ObjectStore& store() noexcept { return *store_; }
  [[nodiscard]] datalake::FileServer& fileServer() noexcept { return *file_server_; }
  [[nodiscard]] CompletionTimePredictor& predictor() noexcept { return predictor_; }
  [[nodiscard]] ndn::Forwarder& forwarder() noexcept { return forwarder_; }

  /// Loads the synthetic genomics datasets into the data lake and
  /// installs the magic-blast image (the paper's data-loading tool +
  /// app deployment, SV-B). Idempotent per object name.
  void loadGenomicsDatasets(const genomics::DatasetCatalog& catalog);

  /// Enables the migration plane's checkpoint namespace on this
  /// cluster: a second FileServer serves /ndn/k8s/ckpt objects out of
  /// the same data lake (short freshness — the _manifest is a mutable
  /// latest-epoch pointer) and the gateway restores ckpt=<job>/<epoch>
  /// compute requests from it. Idempotent.
  void enableCheckpointServing();
  /// Null until enableCheckpointServing().
  [[nodiscard]] datalake::FileServer* ckptServer() noexcept {
    return ckpt_server_.get();
  }

  /// Hooks the whole cluster into `registry`: forwarder + gateway
  /// counters, K8s capacity gauges, and a TelemetryPublisher serving the
  /// registry under /ndn/k8s/telemetry/<name>. Call once.
  void attachTelemetry(telemetry::MetricsRegistry& registry,
                       telemetry::Tracer* tracer = nullptr);
  [[nodiscard]] telemetry::TelemetryPublisher* telemetryPublisher() noexcept {
    return publisher_.get();
  }

  /// Points the cluster's forwarder and gateway at a flight recorder
  /// (forwarding failures + admission rejections). Null detaches.
  void setFlightRecorder(telemetry::FlightRecorder* recorder) noexcept {
    forwarder_.setFlightRecorder(recorder);
    gateway_->setFlightRecorder(recorder);
  }

  /// Attaches the traffic observability plane: the cluster owns a
  /// FlowAccountant, the forwarder's link faces get wait-free taps, the
  /// gateway's admission path reports per-tenant submit bytes, and —
  /// combined with attachTelemetry(), in either order — the accountant
  /// is mirrored into the registry and served as the
  /// /ndn/k8s/telemetry/<name>/flow/ content group. Idempotent.
  telemetry::FlowAccountant& enableFlowAccounting(
      telemetry::FlowAccountantOptions options = {});
  /// Null until enableFlowAccounting().
  [[nodiscard]] telemetry::FlowAccountant* flowAccountant() noexcept {
    return flow_.get();
  }

 private:
  ComputeClusterConfig config_;
  ndn::Forwarder& forwarder_;
  std::unique_ptr<k8s::Cluster> cluster_;
  k8s::PersistentVolumeClaim* pvc_ = nullptr;
  std::unique_ptr<datalake::ObjectStore> store_;
  std::unique_ptr<datalake::FileServer> file_server_;
  std::unique_ptr<datalake::FileServer> ckpt_server_;
  CompletionTimePredictor predictor_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<telemetry::TelemetryPublisher> publisher_;
  std::unique_ptr<telemetry::FlowAccountant> flow_;
  /// Registry from attachTelemetry(), kept so enableFlowAccounting()
  /// works in either call order relative to it.
  telemetry::MetricsRegistry* registry_ = nullptr;
  bool flow_mirrored_ = false;
  bool flow_published_ = false;

  /// Wires the accountant into whatever export targets exist yet.
  void wireFlowExports();
};

}  // namespace lidc::core
