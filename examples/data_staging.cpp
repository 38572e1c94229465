// Data staging: a new cluster joins the overlay with an empty data
// lake, replicates the genomics datasets over NDN from its peer, and
// immediately starts winning nearby BLAST jobs. Demonstrates the
// decentralized data/compute coupling of the paper (SII: "the framework
// also integrates data lakes built-upon content names").
#include <cstdio>
#include <vector>

#include "common/strings.hpp"
#include "core/client.hpp"
#include "core/overlay.hpp"
#include "replica/scheduler.hpp"

int main() {
  using namespace lidc;

  sim::Simulator sim;
  core::ClusterOverlay overlay(sim);
  overlay.addNode("client-host");
  genomics::DatasetCatalog catalog(/*scale=*/0.1);

  // The established cluster, far away, holding all the data.
  core::ComputeClusterConfig seededConfig;
  seededConfig.name = "established";
  auto& seeded = overlay.addCluster(seededConfig);
  seeded.loadGenomicsDatasets(catalog);
  overlay.connect("client-host", "established",
                  net::LinkParams{sim::Duration::millis(60)});
  overlay.announceCluster("established");

  core::LidcClient client(*overlay.topology().node("client-host"), "user");
  core::ComputeRequest request;
  request.app = "BLAST";
  request.cpu = MilliCpu::fromCores(2);
  request.memory = ByteSize::fromGiB(4);
  request.params["srr_id"] = "SRR2931415";

  auto submitAndReport = [&](const char* phase) {
    client.submit(request, [&, phase](Result<core::SubmitResult> ack) {
      if (ack.ok()) {
        std::printf("[%s] job placed on '%s' (%s away)\n", phase,
                    ack->cluster.c_str(), ack->placementLatency.toString().c_str());
      } else {
        std::printf("[%s] placement failed: %s\n", phase,
                    ack.status().toString().c_str());
      }
    });
    sim.runUntil(sim.now() + sim::Duration::seconds(2));
  };

  std::printf("-- phase 1: only the far cluster exists -----------------\n");
  submitAndReport("before");

  std::printf("\n-- phase 2: a nearby cluster joins, lake empty ----------\n");
  core::ComputeClusterConfig freshConfig;
  freshConfig.name = "campus";
  auto& fresh = overlay.addCluster(freshConfig);
  genomics::installMagicBlast(fresh.cluster(), fresh.store(), catalog);
  overlay.connect("client-host", "campus",
                  net::LinkParams{sim::Duration::millis(4)});
  overlay.announceCluster("campus");
  overlay.refreshAnnouncements();
  // Nearby but dataless: its gateway rejects BLAST (dataset validation),
  // and the network fails over to the established cluster.
  submitAndReport("dataless");

  std::printf("\n-- phase 3: stage the datasets over NDN -----------------\n");
  // The replica plane's staging queue pulls each dataset through the
  // overlay with bounded concurrency and publishes it into the lake.
  replica::TransferOptions stagingOptions;
  stagingOptions.maxConcurrent = 8;
  replica::TransferScheduler staging(fresh.forwarder(), fresh.store(),
                                     fresh.name(), stagingOptions);
  const std::vector<ndn::Name> datasets{ndn::Name("/ndn/k8s/data/human-ref"),
                                        ndn::Name("/ndn/k8s/data/SRR2931415"),
                                        ndn::Name("/ndn/k8s/data/SRR5139395")};
  const sim::Time stagingStart = sim.now();
  std::size_t pending = datasets.size();
  Status firstError = Status::Ok();
  for (const auto& dataset : datasets) {
    staging.enqueue(dataset, {}, [&](Status status, std::uint64_t) {
      if (!status.ok() && firstError.ok()) firstError = status;
      if (--pending > 0) return;
      std::printf("staging %s: %llu objects, %s in %s\n",
                  firstError.ok() ? "complete" : firstError.toString().c_str(),
                  static_cast<unsigned long long>(staging.staged()),
                  strings::formatBytes(staging.bytesMoved()).c_str(),
                  (sim.now() - stagingStart).toString().c_str());
      std::printf("transfer queue: %llu staged, %llu local hits\n",
                  static_cast<unsigned long long>(staging.staged()),
                  static_cast<unsigned long long>(staging.localHits()));
    });
  }
  sim.run();

  std::printf("\n-- phase 4: the nearby cluster now wins -----------------\n");
  submitAndReport("after");
  return 0;
}
