#include "core/compute_cluster.hpp"

#include <cassert>

#include "apps/compress_app.hpp"
#include "core/checkpoint_format.hpp"
#include "apps/transform_app.hpp"
#include "genomics/fasta.hpp"

namespace lidc::core {

ComputeCluster::ComputeCluster(ndn::Forwarder& forwarder, ComputeClusterConfig config)
    : config_(std::move(config)), forwarder_(forwarder) {
  assert(!config_.name.empty());
  cluster_ = std::make_unique<k8s::Cluster>(config_.name, forwarder_.simulator());
  for (int i = 0; i < config_.nodeCount; ++i) {
    cluster_->addNode(config_.name + "-node-" + std::to_string(i), config_.perNode);
  }

  // The data lake: a PVC, its object store, and the NDN file server
  // exposed under /ndn/k8s/data (paper SIV: "a Kubernetes PVC ...
  // mounts it to an NFS server, which functions like a remote data lake").
  auto pvcResult = cluster_->createPvc("datalake-pvc", config_.pvcCapacity);
  assert(pvcResult.ok());
  pvc_ = *pvcResult;
  store_ = std::make_unique<datalake::ObjectStore>(*pvc_);
  file_server_ =
      std::make_unique<datalake::FileServer>(forwarder_, *store_, kDataPrefix);

  // Expose the gateway NFD as a NodePort service, as in Fig. 3.
  k8s::ServiceSpec nfdSpec;
  nfdSpec.type = k8s::ServiceType::kNodePort;
  nfdSpec.selector = {{"app", "nfd"}};
  nfdSpec.port = 6363;
  (void)cluster_->createService("ndnk8s", "gateway-nfd", nfdSpec);
  // The data lake's internal NFD service with its cluster DNS name
  // ("dl-nfd.ndnk8s.svc.cluster.local" in the paper).
  k8s::ServiceSpec dlSpec;
  dlSpec.selector = {{"app", "dl-nfd"}};
  dlSpec.port = 6363;
  (void)cluster_->createService("ndnk8s", "dl-nfd", dlSpec);

  // Application-specific validators (paper SIV-B): format checks first,
  // then data-lake existence so doomed jobs never launch.
  ValidatorRegistry validators;
  validators.add("BLAST", combineValidators(makeBlastValidator(),
                                            makeDataLakeValidator(*store_)));
  validators.add("compress", combineValidators(makeCompressionValidator(),
                                               makeDataLakeValidator(*store_)));
  validators.add("transform", combineValidators(makeTransformValidator(),
                                                makeDataLakeValidator(*store_)));

  gateway_ = std::make_unique<Gateway>(forwarder_, *cluster_, std::move(validators),
                                       config_.gateway, &predictor_);
  gateway_->jobs().mapAppToImage("BLAST", "magic-blast");
  gateway_->enablePublish(*store_);
  if (config_.tenants != nullptr) {
    gateway_->enableQos(*config_.tenants, config_.admission);
  }

  // The second stock application (paper SIV-B): a file compression tool
  // with its own validation rules.
  apps::installCompressApp(*cluster_, *store_);
  // The generic DAG-stage app used by workflow benches and tests.
  apps::installTransformApp(*cluster_, *store_);
}

void ComputeCluster::enableCheckpointServing() {
  if (ckpt_server_) return;
  ckpt_server_ =
      std::make_unique<datalake::FileServer>(forwarder_, *store_, kCkptPrefix);
  // The _manifest is a mutable latest-epoch pointer queried with
  // MustBeFresh: keep served freshness short so no poller acts on a
  // superseded pointer (epoch objects themselves are immutable).
  ckpt_server_->setFreshness(sim::Duration::millis(500));
  gateway_->enableCheckpointRestore(*store_);
}

void ComputeCluster::attachTelemetry(telemetry::MetricsRegistry& registry,
                                     telemetry::Tracer* tracer) {
  forwarder_.attachTelemetry(registry, tracer);
  gateway_->attachTelemetry(registry, tracer);

  // K8s capacity gauges, synced at snapshot time (the k8s layer itself
  // stays telemetry-free).
  const telemetry::Labels labels{{"cluster", config_.name}};
  collector_ = registry.registerCollector([this, &registry, labels] {
    const auto free = cluster_->totalFree();
    const auto total = cluster_->totalAllocatable();
    registry.gauge("lidc_cluster_free_cpu_m", labels)
        .set(static_cast<double>(free.cpu.millicores()));
    registry.gauge("lidc_cluster_free_mem_bytes", labels)
        .set(static_cast<double>(free.memory.bytes()));
    registry.gauge("lidc_cluster_total_cpu_m", labels)
        .set(static_cast<double>(total.cpu.millicores()));
    registry.gauge("lidc_cluster_running_jobs", labels)
        .set(static_cast<double>(cluster_->runningJobCount()));
    registry.gauge("lidc_cluster_nodes_ready", labels)
        .set(static_cast<double>(cluster_->readyNodeCount()));
    registry.gauge("lidc_cluster_nodes_total", labels)
        .set(static_cast<double>(cluster_->nodeCount()));
  });

  publisher_ = std::make_unique<telemetry::TelemetryPublisher>(
      forwarder_, registry, config_.name);
  publisher_->addGroup("forwarder", "lidc_forwarder");
  publisher_->addGroup("gateway", "lidc_gateway");
  if (config_.tenants != nullptr) {
    // Per-tenant admission series under /ndn/k8s/telemetry/<name>/qos/.
    publisher_->addGroup("qos", "lidc_qos");
  }
  registry_ = &registry;
  wireFlowExports();
}

telemetry::FlowAccountant& ComputeCluster::enableFlowAccounting(
    telemetry::FlowAccountantOptions options) {
  if (!flow_) {
    flow_ = std::make_unique<telemetry::FlowAccountant>(forwarder_.simulator(),
                                                        options);
    forwarder_.attachFlowAccounting(*flow_);
    if (auto* admission = gateway_->admission()) {
      admission->setFlowAccountant(flow_.get());
    }
    wireFlowExports();
  }
  return *flow_;
}

void ComputeCluster::wireFlowExports() {
  if (!flow_) return;
  if (registry_ != nullptr && !flow_mirrored_) {
    flow_->attachTelemetry(*registry_);
    flow_mirrored_ = true;
  }
  if (publisher_ != nullptr && !flow_published_) {
    // The flow ledger rides the monitoring plane as its own content
    // group: /ndn/k8s/telemetry/<name>/flow/ (same manifest + immutable
    // snapshot discipline as the registry groups).
    auto* fa = flow_.get();
    publisher_->addContentGroup(
        "flow", [fa] { return fa->toPrometheus(); },
        [fa] { return fa->revision(); });
    flow_published_ = true;
  }
}

void ComputeCluster::loadGenomicsDatasets(const genomics::DatasetCatalog& catalog) {
  // Reference database.
  {
    ndn::Name refName = kDataPrefix;
    refName.append(config_.blast.referenceObject);
    if (!store_->contains(refName)) {
      const auto reference = catalog.generateReference();
      (void)store_->put(refName, genomics::toFasta({reference}));
    }
  }
  // SRA samples (rice + kidney, paper SV-B).
  const auto reference = catalog.generateReference();
  for (const auto& spec : catalog.allSamples()) {
    ndn::Name sampleName = kDataPrefix;
    sampleName.append(spec.srrId);
    if (store_->contains(sampleName)) continue;
    const auto reads = catalog.generateSample(spec, reference.bases);
    (void)store_->put(sampleName, genomics::toFasta(reads));
  }
  genomics::installMagicBlast(*cluster_, *store_, catalog, config_.blast);
}

}  // namespace lidc::core
