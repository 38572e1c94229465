// FileServer + Retriever over a real two-node topology: segmentation,
// reassembly, caching of segments, loss recovery, and error paths.
#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <optional>

#include "datalake/file_server.hpp"
#include "datalake/retriever.hpp"
#include "net/link.hpp"

namespace lidc::datalake {
namespace {

class FileTransferTest : public ::testing::Test {
 protected:
  FileTransferTest()
      : client_("client", sim_),
        server_("server", sim_),
        pvc_("p", ByteSize::fromMiB(16)),
        store_(pvc_) {}

  void wire(net::LinkParams params, std::size_t segmentSize = 1024) {
    auto [clientToServer, serverToClient] =
        net::Link::connect(sim_, client_, server_, params, &link_);
    client_.registerPrefix(ndn::Name("/ndn/k8s/data"), clientToServer);
    fileServer_ = std::make_unique<FileServer>(server_, store_,
                                               ndn::Name("/ndn/k8s/data"),
                                               segmentSize);
    clientApp_ = std::make_shared<ndn::AppFace>("app://client", sim_, 5);
    client_.addFace(clientApp_);
  }

  std::vector<std::uint8_t> makeBlob(std::size_t size) {
    std::vector<std::uint8_t> blob(size);
    for (std::size_t i = 0; i < size; ++i) blob[i] = static_cast<std::uint8_t>(i * 7);
    return blob;
  }

  sim::Simulator sim_;
  ndn::Forwarder client_;
  ndn::Forwarder server_;
  std::shared_ptr<net::Link> link_;
  k8s::PersistentVolumeClaim pvc_;
  ObjectStore store_;
  std::unique_ptr<FileServer> fileServer_;
  std::shared_ptr<ndn::AppFace> clientApp_;
};

TEST_F(FileTransferTest, MultiSegmentObjectReassembles) {
  wire(net::LinkParams{sim::Duration::millis(2)}, /*segmentSize=*/1024);
  const auto blob = makeBlob(10'000);  // 10 segments
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/blob"), blob).ok());

  Retriever retriever(*clientApp_);
  std::optional<std::vector<std::uint8_t>> fetched;
  retriever.fetch(ndn::Name("/ndn/k8s/data/blob"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    fetched = std::move(*r);
                  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, blob);
  EXPECT_GE(fileServer_->interestsServed(), 11u);  // meta + 10 segments
}

TEST_F(FileTransferTest, ExactSegmentBoundary) {
  wire(net::LinkParams{sim::Duration::millis(1)}, 1024);
  const auto blob = makeBlob(2048);  // exactly 2 segments
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/blob"), blob).ok());
  Retriever retriever(*clientApp_);
  std::optional<std::vector<std::uint8_t>> fetched;
  retriever.fetch(ndn::Name("/ndn/k8s/data/blob"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    fetched = std::move(*r);
                  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->size(), 2048u);
}

TEST_F(FileTransferTest, EmptyObjectFetchesAsEmpty) {
  wire(net::LinkParams{sim::Duration::millis(1)});
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/empty"), {}).ok());
  Retriever retriever(*clientApp_);
  bool done = false;
  retriever.fetch(ndn::Name("/ndn/k8s/data/empty"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    EXPECT_TRUE(r->empty());
                    done = true;
                  });
  sim_.run();
  EXPECT_TRUE(done);
}

TEST_F(FileTransferTest, MissingObjectFailsWithNotFound) {
  wire(net::LinkParams{sim::Duration::millis(1)});
  Retriever retriever(*clientApp_);
  std::optional<Status> failure;
  retriever.fetch(ndn::Name("/ndn/k8s/data/ghost"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_FALSE(r.ok());
                    failure = r.status();
                  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kNotFound);
  EXPECT_GE(fileServer_->interestsRejected(), 1u);
}

TEST_F(FileTransferTest, LossRecoveredByRetries) {
  wire(net::LinkParams{sim::Duration::millis(1), 0.0, /*loss=*/0.2}, 512);
  const auto blob = makeBlob(8192);  // 16 segments
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/lossy"), blob).ok());
  RetrieveOptions options;
  options.maxRetriesPerSegment = 10;
  options.interestLifetime = sim::Duration::millis(200);
  Retriever retriever(*clientApp_, options);
  std::optional<std::vector<std::uint8_t>> fetched;
  retriever.fetch(ndn::Name("/ndn/k8s/data/lossy"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    fetched = std::move(*r);
                  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, blob);
}

TEST_F(FileTransferTest, SecondFetchHitsContentStore) {
  wire(net::LinkParams{sim::Duration::millis(2)}, 1024);
  const auto blob = makeBlob(4096);
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/cached"), blob).ok());
  Retriever retriever(*clientApp_);
  int done = 0;
  retriever.fetch(ndn::Name("/ndn/k8s/data/cached"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    ++done;
                  });
  sim_.run();
  const auto servedAfterFirst = fileServer_->interestsServed();
  retriever.fetch(ndn::Name("/ndn/k8s/data/cached"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok());
                    EXPECT_EQ(*r, blob);
                    ++done;
                  });
  sim_.run();
  EXPECT_EQ(done, 2);
  // All of the second transfer came from the client node's CS.
  EXPECT_EQ(fileServer_->interestsServed(), servedAfterFirst);
}

/// Runs `fn` to completion on a thread whose stack is `stackBytes`.
void runOnStack(std::size_t stackBytes, std::function<void()> fn) {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, stackBytes);
  pthread_t thread;
  auto trampoline = [](void* arg) -> void* {
    (*static_cast<std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &fn), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

TEST_F(FileTransferTest, CachedSegmentsDoNotGrowTheStack) {
  // Every segment of the second fetch is a Content Store hit on the
  // client's forwarder, which delivers Data synchronously. A retriever
  // that recursed once per delivered segment would overflow the 1 MiB
  // stack the fetch runs on.
  constexpr std::size_t kSegments = 4000;
  wire(net::LinkParams{sim::Duration::millis(2)}, /*segmentSize=*/16);
  const auto blob = makeBlob(kSegments * 16);
  const ndn::Name name("/ndn/k8s/data/many");
  ASSERT_TRUE(store_.put(name, blob).ok());
  Retriever retriever(*clientApp_);
  std::optional<Result<std::vector<std::uint8_t>>> warm;
  retriever.fetch(name, [&](Result<std::vector<std::uint8_t>> r) {
    warm = std::move(r);
  });
  sim_.run();
  ASSERT_TRUE(warm.has_value() && warm->ok());
  const auto servedAfterWarm = fileServer_->interestsServed();
  const auto csHitsAfterWarm = client_.counters().nCsHits;

  std::optional<Result<std::vector<std::uint8_t>>> cached;
  runOnStack(1 << 20, [&] {
    retriever.fetch(name, [&](Result<std::vector<std::uint8_t>> r) {
      cached = std::move(r);
    });
    sim_.run();
  });
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(cached->ok()) << cached->status();
  EXPECT_EQ(**cached, blob);
  // Meta and every segment came from the client node's CS.
  EXPECT_EQ(client_.counters().nCsHits - csHitsAfterWarm, kSegments + 1);
  EXPECT_EQ(fileServer_->interestsServed(), servedAfterWarm);
}

TEST_F(FileTransferTest, SegmentBeyondEndIsNacked) {
  wire(net::LinkParams{sim::Duration::millis(1)}, 1024);
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/blob"), makeBlob(100)).ok());
  int nacks = 0;
  clientApp_->expressInterest(
      ndn::Interest(ndn::Name("/ndn/k8s/data/blob/seg=5")),
      [](const ndn::Interest&, const ndn::Data&) { FAIL(); },
      [&](const ndn::Interest&, const ndn::Nack&) { ++nacks; });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

TEST_F(FileTransferTest, MalformedSegmentNumberIsNacked) {
  wire(net::LinkParams{sim::Duration::millis(1)}, 1024);
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/blob"), makeBlob(100)).ok());
  int nacks = 0;
  clientApp_->expressInterest(
      ndn::Interest(ndn::Name("/ndn/k8s/data/blob/seg=abc")),
      [](const ndn::Interest&, const ndn::Data&) { FAIL(); },
      [&](const ndn::Interest&, const ndn::Nack&) { ++nacks; });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

/// Builds a fresh two-node world and times one fetch of `blob` using the
/// given pipeline window.
double timedFetchSeconds(const std::vector<std::uint8_t>& blob, std::size_t window) {
  sim::Simulator sim;
  ndn::Forwarder client("client", sim);
  ndn::Forwarder server("server", sim);
  auto [clientToServer, serverToClient] = net::Link::connect(
      sim, client, server, net::LinkParams{sim::Duration::millis(10)});
  client.registerPrefix(ndn::Name("/ndn/k8s/data"), clientToServer);
  k8s::PersistentVolumeClaim pvc("p", ByteSize::fromMiB(16));
  ObjectStore store(pvc);
  FileServer fileServer(server, store, ndn::Name("/ndn/k8s/data"), 512);
  EXPECT_TRUE(store.put(ndn::Name("/ndn/k8s/data/win"), blob).ok());
  auto clientApp = std::make_shared<ndn::AppFace>("app://client", sim, 5);
  client.addFace(clientApp);
  RetrieveOptions options;
  options.window = window;
  Retriever retriever(*clientApp, options);
  bool ok = false;
  retriever.fetch(ndn::Name("/ndn/k8s/data/win"),
                  [&](Result<std::vector<std::uint8_t>> r) { ok = r.ok(); });
  sim.run();
  EXPECT_TRUE(ok);
  return sim.now().toSeconds();
}

TEST(FileTransferPipelineTest, WindowPipeliningIsFasterThanSequential) {
  // 20 segments over a 10 ms link: window 1 needs ~2*10ms*21 = 420 ms;
  // window 8 should finish far sooner.
  std::vector<std::uint8_t> blob(20 * 512);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
  }
  const double sequential = timedFetchSeconds(blob, 1);
  const double pipelined = timedFetchSeconds(blob, 8);
  EXPECT_LT(pipelined * 3, sequential);
}

}  // namespace
}  // namespace lidc::datalake
