// Multi-tenant isolation (the paper's multi-organizational setting):
// tenant= routes jobs into per-organization namespaces, ResourceQuotas
// cap each tenant per cluster, and exhausted quotas fail over to other
// clusters instead of erroring.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/overlay.hpp"

namespace lidc::core {
namespace {

class TenancyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    overlay_ = std::make_unique<ClusterOverlay>(sim_);
    overlay_->addNode("client-host");
    cluster_ = &addCluster("main", 5);
    client_ = std::make_unique<LidcClient>(
        *overlay_->topology().node("client-host"), "user");
  }

  ComputeCluster& addCluster(const std::string& name, int linkMs) {
    ComputeClusterConfig config;
    config.name = name;
    config.perNode = k8s::Resources{MilliCpu::fromCores(32), ByteSize::fromGiB(64)};
    auto& cluster = overlay_->addCluster(config);
    cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(60);
      return result;
    });
    cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay_->connect("client-host", name,
                      net::LinkParams{sim::Duration::millis(linkMs)});
    overlay_->announceCluster(name);
    return cluster;
  }

  ComputeRequest tenantRequest(const std::string& tenant,
                               std::uint64_t cores = 2) {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(cores);
    request.memory = ByteSize::fromGiB(2);
    if (!tenant.empty()) request.params["tenant"] = tenant;
    return request;
  }

  Result<SubmitResult> submit(const ComputeRequest& request) {
    std::optional<Result<SubmitResult>> out;
    client_->submit(request, [&](Result<SubmitResult> r) { out = std::move(r); });
    sim_.runUntil(sim_.now() + sim::Duration::seconds(2));
    return out.value_or(Status::Internal("no answer"));
  }

  sim::Simulator sim_;
  std::unique_ptr<ClusterOverlay> overlay_;
  ComputeCluster* cluster_ = nullptr;
  std::unique_ptr<LidcClient> client_;
};

TEST_F(TenancyTest, TenantJobsLandInTenantNamespace) {
  auto ack = submit(tenantRequest("genomics-lab"));
  ASSERT_TRUE(ack.ok()) << ack.status();
  auto* job = cluster_->cluster().job("tenant-genomics-lab", ack->jobId);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(cluster_->cluster().job("ndnk8s", ack->jobId), nullptr);
  // Status queries still resolve across namespaces.
  std::optional<JobStatusSnapshot> status;
  client_->queryStatus(ndn::Name(ack->statusName),
                       [&](Result<JobStatusSnapshot> r) {
                         ASSERT_TRUE(r.ok()) << r.status();
                         status = *r;
                       });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(2));
  ASSERT_TRUE(status.has_value());
}

TEST_F(TenancyTest, TenantsAreIsolatedNamespaces) {
  auto a = submit(tenantRequest("lab-a"));
  auto b = submit(tenantRequest("lab-b"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cluster_->cluster().jobsInNamespace("tenant-lab-a").size(), 1u);
  EXPECT_EQ(cluster_->cluster().jobsInNamespace("tenant-lab-b").size(), 1u);
}

TEST_F(TenancyTest, InvalidTenantNameRejected) {
  auto ack = submit(tenantRequest("Not/Valid"));
  ASSERT_FALSE(ack.ok());
  EXPECT_NE(ack.status().message().find("tenant"), std::string::npos);
}

TEST_F(TenancyTest, QuotaCapsATenant) {
  cluster_->cluster().setNamespaceQuota(
      "tenant-small", k8s::Resources{MilliCpu::fromCores(3), ByteSize::fromGiB(8)});
  ASSERT_TRUE(submit(tenantRequest("small", 2)).ok());
  // Second 2-core job would exceed the 3-core quota: rejected (nacked),
  // and with no other cluster the placement fails as unavailable.
  auto second = submit(tenantRequest("small", 2));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  // Other tenants are unaffected.
  EXPECT_TRUE(submit(tenantRequest("other", 2)).ok());
}

TEST_F(TenancyTest, CompletedJobsStopCountingAgainstTheQuota) {
  cluster_->cluster().setNamespaceQuota(
      "tenant-small", k8s::Resources{MilliCpu::fromCores(3), ByteSize::fromGiB(8)});
  auto first = submit(tenantRequest("small", 2));
  ASSERT_TRUE(first.ok()) << first.status();
  sim_.runUntil(sim_.now() + sim::Duration::seconds(70));
  // Finished, but not yet collected by the status GC: its pod remains.
  const k8s::Job* done = cluster_->cluster().job("tenant-small", first->jobId);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->status().state, k8s::JobState::kCompleted);
  EXPECT_EQ(cluster_->cluster().namespaceUsage("tenant-small"), k8s::Resources{});
  auto second = submit(tenantRequest("small", 2));
  ASSERT_TRUE(second.ok()) << second.status();
}

TEST_F(TenancyTest, QuotaExhaustionFailsOverToAnotherCluster) {
  addCluster("backup", 40);
  cluster_->cluster().setNamespaceQuota(
      "tenant-small", k8s::Resources{MilliCpu::fromCores(3), ByteSize::fromGiB(8)});
  ASSERT_TRUE(submit(tenantRequest("small", 2)).ok());
  auto second = submit(tenantRequest("small", 2));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->cluster, "backup");
}

TEST_F(TenancyTest, NamespaceUsageAccounting) {
  (void)submit(tenantRequest("lab-a", 2));
  (void)submit(tenantRequest("lab-a", 4));
  const auto usage = cluster_->cluster().namespaceUsage("tenant-lab-a");
  EXPECT_EQ(usage.cpu, MilliCpu::fromCores(6));
  EXPECT_FALSE(cluster_->cluster().namespaceQuota("tenant-lab-a").has_value());
}

}  // namespace
}  // namespace lidc::core
