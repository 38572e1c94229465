// Transfer scheduler tests: priority-ordered staging with FIFO within
// a level, join-dedup of concurrent requests, cancellation of queued
// and in-flight transfers, capacity rejection surfaced as
// ResourceExhausted, tenant attribution through the store's quota
// charger, the bandwidth budget serializing starts, and a scheduler
// destroyed before its metrics registry.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalake/file_server.hpp"
#include "k8s/pvc.hpp"
#include "net/topology.hpp"
#include "replica/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace lidc::replica {
namespace {

const ndn::Name kDataPrefix("/ndn/k8s/data");

std::vector<std::uint8_t> payload(std::size_t size) {
  return std::vector<std::uint8_t>(size, 0x5a);
}

/// A source lake on "src" serving /ndn/k8s/data, and a destination
/// cluster "dst" staging into its own (small, configurable) lake.
class TransferSchedulerTest : public ::testing::Test {
 protected:
  TransferSchedulerTest()
      : topology_(sim_),
        srcPvc_("src-lake", ByteSize::fromMiB(8)),
        srcStore_(srcPvc_) {
    ndn::Forwarder& src = topology_.addNode("src");
    topology_.addNode("dst");
    topology_.connect("src", "dst", net::LinkParams{sim::Duration::millis(10)});
    server_ = std::make_unique<datalake::FileServer>(src, srcStore_, kDataPrefix);
    topology_.installRoutesTo(kDataPrefix, "src");

    (void)srcStore_.put(ndn::Name("/ndn/k8s/data/a"), payload(2048));
    (void)srcStore_.put(ndn::Name("/ndn/k8s/data/b"), payload(2048));
    (void)srcStore_.put(ndn::Name("/ndn/k8s/data/c"), payload(2048));
  }

  /// Builds the destination-side store and scheduler. Kept out of the
  /// constructor so tests can size the lake and tune options first.
  void makeScheduler(TransferOptions options = {},
                     ByteSize capacity = ByteSize::fromMiB(8),
                     ReplicaCatalog* catalog = nullptr) {
    dstPvc_ = std::make_unique<k8s::PersistentVolumeClaim>("dst-lake", capacity);
    dstStore_ = std::make_unique<datalake::ObjectStore>(*dstPvc_);
    scheduler_ = std::make_unique<TransferScheduler>(
        *topology_.node("dst"), *dstStore_, "dst", options, catalog);
  }

  /// Stages /a then /b back to back and returns the gap in seconds
  /// between their completion times.
  double spreadOfTwoTransfers() {
    std::vector<double> doneAt;
    auto stamp = [this, &doneAt](Status s, std::uint64_t) {
      EXPECT_TRUE(s.ok()) << s;
      doneAt.push_back(sim_.now().toSeconds());
    };
    scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"), {}, stamp);
    scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), {}, stamp);
    sim_.run();
    EXPECT_EQ(doneAt.size(), 2u);
    return doneAt.size() == 2 ? doneAt[1] - doneAt[0] : 0.0;
  }

  sim::Simulator sim_;
  net::Topology topology_;
  k8s::PersistentVolumeClaim srcPvc_;
  datalake::ObjectStore srcStore_;
  std::unique_ptr<datalake::FileServer> server_;
  std::unique_ptr<k8s::PersistentVolumeClaim> dstPvc_;
  std::unique_ptr<datalake::ObjectStore> dstStore_;
  std::unique_ptr<TransferScheduler> scheduler_;
};

TEST_F(TransferSchedulerTest, StagesAndSyncsCatalog) {
  ndn::Forwarder& dst = *topology_.node("dst");
  ReplicaCatalog catalog(dst, "dst");
  makeScheduler({}, ByteSize::fromMiB(8), &catalog);

  std::optional<Status> status;
  std::uint64_t bytes = 0;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"), {},
                      [&](Status s, std::uint64_t b) {
                        status = s;
                        bytes = b;
                      });
  // Enqueued but not landed: the catalog already announces staging.
  ASSERT_NE(catalog.entry(ndn::Name("/ndn/k8s/data/a")), nullptr);
  EXPECT_EQ(catalog.entry(ndn::Name("/ndn/k8s/data/a"))->state,
            ReplicaState::kStaging);

  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << *status;
  EXPECT_EQ(bytes, 2048u);
  EXPECT_EQ(scheduler_->staged(), 1u);
  EXPECT_EQ(scheduler_->bytesMoved(), 2048u);
  EXPECT_TRUE(dstStore_->contains(ndn::Name("/ndn/k8s/data/a")));
  EXPECT_EQ(catalog.entry(ndn::Name("/ndn/k8s/data/a"))->state,
            ReplicaState::kReady);
  EXPECT_EQ(catalog.entry(ndn::Name("/ndn/k8s/data/a"))->bytes, 2048u);
}

TEST_F(TransferSchedulerTest, LocalHitShortCircuits) {
  makeScheduler();
  ASSERT_TRUE(dstStore_->put(ndn::Name("/ndn/k8s/data/a"), payload(2048)).ok());

  std::uint64_t bytes = 99;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"), {},
                      [&bytes](Status, std::uint64_t b) { bytes = b; });
  EXPECT_EQ(scheduler_->localHits(), 1u);
  EXPECT_EQ(bytes, 0u);  // fired synchronously, nothing moved
  EXPECT_EQ(scheduler_->bytesMoved(), 0u);
}

TEST_F(TransferSchedulerTest, PriorityBeatsFifoAndFifoBreaksTies) {
  TransferOptions options;
  options.maxConcurrent = 1;
  makeScheduler(options);

  // `a` starts immediately (the lane is free); `b` and `c` queue behind
  // it, and the higher-priority `c` overtakes `b`.
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  TransferRequest urgent;
  urgent.priority = 5;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"));
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/c"), urgent);
  EXPECT_EQ(scheduler_->queuedCount(), 2u);
  sim_.run();

  const std::string& log = scheduler_->eventLog();
  const auto startA = log.find("start /ndn/k8s/data/a");
  const auto startB = log.find("start /ndn/k8s/data/b");
  const auto startC = log.find("start /ndn/k8s/data/c");
  ASSERT_NE(startA, std::string::npos);
  ASSERT_NE(startB, std::string::npos);
  ASSERT_NE(startC, std::string::npos);
  EXPECT_LT(startA, startC);
  EXPECT_LT(startC, startB);
  EXPECT_EQ(scheduler_->staged(), 3u);
}

TEST_F(TransferSchedulerTest, SecondRequestJoinsInsteadOfRefetching) {
  TransferOptions options;
  options.maxConcurrent = 1;
  makeScheduler(options);

  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  int firings = 0;
  std::uint64_t firstBytes = 0;
  std::uint64_t secondBytes = 0;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), {},
                      [&](Status, std::uint64_t b) {
                        ++firings;
                        firstBytes = b;
                      });
  // The join lends its higher priority to the queued transfer.
  TransferRequest boost;
  boost.priority = 7;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), boost,
                      [&](Status, std::uint64_t b) {
                        ++firings;
                        secondBytes = b;
                      });
  sim_.run();

  EXPECT_EQ(scheduler_->joined(), 1u);
  EXPECT_EQ(scheduler_->staged(), 2u);  // a and b, b fetched once
  EXPECT_EQ(firings, 2);
  EXPECT_EQ(firstBytes, 2048u);
  EXPECT_EQ(secondBytes, 2048u);
  EXPECT_NE(scheduler_->eventLog().find("join /ndn/k8s/data/b prio=7"),
            std::string::npos);
}

TEST_F(TransferSchedulerTest, CancelAbortsQueuedTransfer) {
  TransferOptions options;
  options.maxConcurrent = 1;
  makeScheduler(options);

  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  std::optional<Status> status;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), {},
                      [&status](Status s, std::uint64_t) { status = s; });
  EXPECT_TRUE(scheduler_->cancel(ndn::Name("/ndn/k8s/data/b")));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kAborted);
  // Unknown / already-started datasets are not cancellable this way.
  EXPECT_FALSE(scheduler_->cancel(ndn::Name("/ndn/k8s/data/a")));

  sim_.run();
  EXPECT_EQ(scheduler_->cancelled(), 1u);
  EXPECT_FALSE(dstStore_->contains(ndn::Name("/ndn/k8s/data/b")));
  EXPECT_TRUE(dstStore_->contains(ndn::Name("/ndn/k8s/data/a")));
}

TEST_F(TransferSchedulerTest, CancelTagSweepsQueuedAndInFlight) {
  TransferOptions options;
  options.maxConcurrent = 1;
  makeScheduler(options);

  TransferRequest plan;
  plan.tag = "plan1";
  std::map<std::string, Status> statuses;
  auto record = [&statuses](const std::string& key) {
    return [&statuses, key](Status s, std::uint64_t) { statuses[key] = s; };
  };
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"), plan, record("a"));
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), plan, record("b"));

  // `a` is already in flight, `b` still queued: both are swept, the
  // queued one aborts now, the in-flight one discards its bytes.
  EXPECT_EQ(scheduler_->cancelTag("plan1"), 2u);
  EXPECT_EQ(statuses.at("b").code(), StatusCode::kAborted);
  EXPECT_EQ(statuses.count("a"), 0u);

  sim_.run();
  ASSERT_EQ(statuses.count("a"), 1u);
  EXPECT_EQ(statuses.at("a").code(), StatusCode::kAborted);
  EXPECT_EQ(scheduler_->staged(), 0u);
  EXPECT_EQ(scheduler_->bytesMoved(), 0u);
  EXPECT_FALSE(dstStore_->contains(ndn::Name("/ndn/k8s/data/a")));
  EXPECT_FALSE(dstStore_->contains(ndn::Name("/ndn/k8s/data/b")));
}

TEST_F(TransferSchedulerTest, OverCapacityLakeRejectsWithResourceExhausted) {
  // A 1 KiB lake cannot hold a 2 KiB dataset.
  makeScheduler({}, ByteSize::fromKiB(1));

  std::optional<Status> status;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"), {},
                      [&status](Status s, std::uint64_t) { status = s; });
  sim_.run();

  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler_->capacityRejects(), 1u);
  EXPECT_EQ(scheduler_->staged(), 0u);
  EXPECT_FALSE(dstStore_->contains(ndn::Name("/ndn/k8s/data/a")));
}

TEST_F(TransferSchedulerTest, TenantChargedThroughQuotaCharger) {
  TransferOptions options;
  options.tenant = "genomics";
  makeScheduler(options);
  std::map<std::string, std::uint64_t> charged;
  dstStore_->setQuotaCharger(
      [&charged](const std::string& tenant, std::uint64_t bytes) {
        if (tenant == "over-quota") {
          return Status::ResourceExhausted("publish quota exhausted");
        }
        charged[tenant] += bytes;
        return Status::Ok();
      });

  // Default tenant from TransferOptions...
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  // ...a per-request override...
  TransferRequest override_;
  override_.tenant = "astro";
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), override_);
  // ...and a tenant whose quota is gone.
  TransferRequest blocked;
  blocked.tenant = "over-quota";
  std::optional<Status> status;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/c"), blocked,
                      [&status](Status s, std::uint64_t) { status = s; });
  sim_.run();

  EXPECT_EQ(charged.at("genomics"), 2048u);
  EXPECT_EQ(charged.at("astro"), 2048u);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler_->capacityRejects(), 1u);
  EXPECT_FALSE(dstStore_->contains(ndn::Name("/ndn/k8s/data/c")));
}

TEST_F(TransferSchedulerTest, WithoutBudgetSecondTransferStartsImmediately) {
  TransferOptions options;
  options.maxConcurrent = 1;
  makeScheduler(options);
  EXPECT_LT(spreadOfTwoTransfers(), 2.0);
  EXPECT_EQ(scheduler_->staged(), 2u);
}

TEST_F(TransferSchedulerTest, BandwidthBudgetSerializesStarts) {
  // 1 KiB/s budget: landing 2 KiB holds the gate for 2 s, so the second
  // transfer cannot even start until then.
  TransferOptions options;
  options.maxConcurrent = 1;
  options.bandwidthBytesPerSec = 1024;
  makeScheduler(options);
  EXPECT_GE(spreadOfTwoTransfers(), 2.0);
  EXPECT_EQ(scheduler_->staged(), 2u);
}

TEST_F(TransferSchedulerTest, FlowLedgerMatchesBytesMovedExactly) {
  // Byte-accounting parity: every staged byte the scheduler reports via
  // bytesMoved() must appear exactly once in the flow accountant's
  // "staging" ledger — same path, no double count.
  TransferOptions options;
  options.tenant = "genomics";
  makeScheduler(options);
  telemetry::FlowAccountant flow(sim_);
  scheduler_->setFlowAccountant(&flow);

  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  TransferRequest tagged;
  tagged.tenant = "astro";
  tagged.tag = "plan-42";
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/b"), tagged);
  // A local hit moves nothing and must not touch the ledger.
  ASSERT_TRUE(dstStore_->put(ndn::Name("/ndn/k8s/data/c"), payload(64)).ok());
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/c"));
  sim_.run();

  EXPECT_EQ(scheduler_->staged(), 2u);
  EXPECT_EQ(scheduler_->localHits(), 1u);
  EXPECT_EQ(scheduler_->bytesMoved(), 4096u);
#if !defined(LIDC_TELEMETRY_DISABLED)
  std::uint64_t ledgered = 0;
  for (const auto& [key, bytes] : flow.stagedLedger()) {
    EXPECT_EQ(key.group, "staging");
    ledgered += bytes;
  }
  EXPECT_EQ(ledgered, scheduler_->bytesMoved());
  EXPECT_EQ(flow.stagedBytes("genomics"), 2048u);
  EXPECT_EQ(flow.stagedBytes("astro"), 2048u);
  telemetry::FlowKey tagKey;
  tagKey.group = "staging";
  tagKey.tenant = "astro";
  tagKey.tag = "plan-42";
  EXPECT_EQ(flow.stagedLedger().at(tagKey), 2048u);
#endif
}

TEST_F(TransferSchedulerTest, UnreachableDatasetFailsLoudly) {
  makeScheduler();
  std::optional<Status> status;
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/ghost"), {},
                      [&status](Status s, std::uint64_t) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_FALSE(status->ok());
  EXPECT_EQ(scheduler_->failures(), 1u);
  EXPECT_NE(scheduler_->eventLog().find("fail /ndn/k8s/data/ghost"),
            std::string::npos);
}

TEST_F(TransferSchedulerTest, SchedulerDestroyedLeavesNoCollectorOnItBehind) {
  makeScheduler();
  telemetry::MetricsRegistry registry;
  scheduler_->attachTelemetry(registry);
  scheduler_->enqueue(ndn::Name("/ndn/k8s/data/a"));
  sim_.run();
  const auto last = registry.flatten("lidc_replica_");
  scheduler_.reset();

  // The registry outlives the scheduler; collecting must not read the
  // destroyed scheduler, and the series keep their last values.
  EXPECT_EQ(registry.flatten("lidc_replica_"), last);
  ASSERT_EQ(last.size(), 4u);
  for (const auto& [series, value] : last) {
    if (series.starts_with("lidc_replica_staged_total")) {
      EXPECT_EQ(value, 1.0);
    } else if (series.starts_with("lidc_replica_bytes_moved_total")) {
      EXPECT_EQ(value, 2048.0);
    }
  }
}

}  // namespace
}  // namespace lidc::replica
