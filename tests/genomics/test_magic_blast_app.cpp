// The magic-blast application runner: data-lake I/O, the testbed-scale
// runtime model, and the Table I invariances (cpu/mem barely matter;
// input size dominates).
#include "genomics/magic_blast_app.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "genomics/aligner.hpp"
#include "genomics/fasta.hpp"
#include "k8s/cluster.hpp"

namespace lidc::genomics {
namespace {

class MagicBlastAppTest : public ::testing::Test {
 protected:
  MagicBlastAppTest()
      : pvc_("datalake-pvc", ByteSize::fromGiB(1)), store_(pvc_), catalog_(0.1) {
    const auto reference = catalog_.generateReference();
    EXPECT_TRUE(
        store_.put(ndn::Name("/ndn/k8s/data/human-ref"), toFasta({reference})).ok());
    for (const auto& spec : catalog_.allSamples()) {
      const auto reads = catalog_.generateSample(spec, reference.bases);
      EXPECT_TRUE(store_
                      .put(ndn::Name("/ndn/k8s/data").append(spec.srrId),
                           toFasta(reads))
                      .ok());
    }
    runner_ = makeMagicBlastRunner(store_, catalog_);
  }

  k8s::AppResult run(const std::string& srrId, std::uint64_t cores,
                     std::uint64_t memGib,
                     std::map<std::string, std::string> extraArgs = {}) {
    k8s::JobSpec spec;
    spec.app = "magic-blast";
    spec.requests =
        k8s::Resources{MilliCpu::fromCores(cores), ByteSize::fromGiB(memGib)};
    spec.args = std::move(extraArgs);
    if (!srrId.empty()) spec.args["srr_id"] = srrId;
    k8s::AppContext context{spec, &pvc_, rng_};
    return runner_(context);
  }

  k8s::PersistentVolumeClaim pvc_;
  datalake::ObjectStore store_;
  DatasetCatalog catalog_;
  Rng rng_{1};
  k8s::AppRunner runner_;
};

TEST_F(MagicBlastAppTest, SuccessfulRunWritesResult) {
  const auto result = run("SRR2931415", 2, 4);
  ASSERT_TRUE(result.status.ok()) << result.status;
  EXPECT_FALSE(result.resultPath.empty());
  EXPECT_TRUE(store_.contains(ndn::Name(result.resultPath)));
  EXPECT_GT(result.outputBytes, 0u);
  EXPECT_GT(result.runtime.toSeconds(), 0.0);
}

TEST_F(MagicBlastAppTest, MissingSrrIdFails) {
  const auto result = run("", 2, 4);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST_F(MagicBlastAppTest, UnknownSampleFailsNotFound) {
  const auto result = run("SRR9999999", 2, 4);
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST_F(MagicBlastAppTest, MissingReferenceFails) {
  const auto result = run("SRR2931415", 2, 4, {{"ref", "no-such-ref"}});
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST_F(MagicBlastAppTest, CustomOutputPathRespected) {
  const auto result = run("SRR2931415", 2, 4, {{"out", "results/custom-42"}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.resultPath, "/ndn/k8s/data/results/custom-42");
  EXPECT_TRUE(store_.contains(ndn::Name("/ndn/k8s/data/results/custom-42")));
}

TEST_F(MagicBlastAppTest, RuntimeInsensitiveToCpuAndMemory) {
  // The Table I takeaway: "a variance of CPU and memory sizes is not
  // showing any significant changes in the run time."
  const double base = run("SRR2931415", 2, 4).runtime.toSeconds();
  const double moreCpu = run("SRR2931415", 4, 4).runtime.toSeconds();
  const double moreMem = run("SRR2931415", 2, 6).runtime.toSeconds();
  EXPECT_NEAR(moreCpu / base, 1.0, 0.05);
  EXPECT_NEAR(moreMem / base, 1.0, 0.05);
  // More CPU helps slightly (never hurts).
  EXPECT_LE(moreCpu, base);
}

TEST_F(MagicBlastAppTest, KidneyTakesRoughlyThreeTimesLongerThanRice) {
  const double rice = run("SRR2931415", 2, 4).runtime.toSeconds();
  const double kidney = run("SRR5139395", 2, 4).runtime.toSeconds();
  EXPECT_NEAR(kidney / rice, 3.0, 0.6);
}

TEST_F(MagicBlastAppTest, RuntimeIsTableOneScale) {
  // Rice @ 4GB/2cpu in Table I: 8h09m. Accept a generous band: the
  // simulated aligner's work ratio modulates the model.
  const double riceHours = run("SRR2931415", 2, 4).runtime.toSeconds() / 3600.0;
  EXPECT_GT(riceHours, 4.0);
  EXPECT_LT(riceHours, 16.0);
}

TEST_F(MagicBlastAppTest, StarvedMemoryThrashes) {
  // Below the working set (3 GiB), the runtime model applies the
  // thrashing penalty — the one regime where memory *does* matter.
  const double normal = run("SRR2931415", 2, 4).runtime.toSeconds();
  const double starved = run("SRR2931415", 2, 1).runtime.toSeconds();
  EXPECT_GT(starved / normal, 2.0);
}

TEST_F(MagicBlastAppTest, OutputSizeShapeMatchesTableOne) {
  // Table I: rice output 941MB, kidney 2.71GB (ratio ~2.9).
  const auto rice = run("SRR2931415", 2, 4);
  const auto kidney = run("SRR5139395", 2, 2 + 4);
  ASSERT_TRUE(rice.status.ok());
  ASSERT_TRUE(kidney.status.ok());
  const double ratio = static_cast<double>(kidney.outputBytes) /
                       static_cast<double>(rice.outputBytes);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 4.5);
  // Absolute scale: hundreds of MB to a few GB.
  EXPECT_GT(rice.outputBytes, 100'000'000u);
  EXPECT_LT(rice.outputBytes, 4'000'000'000u);
}

TEST_F(MagicBlastAppTest, RunsOnOneClusterShareOneReferenceDatabase) {
  const std::uint64_t before = ReferenceDb::builds();
  ASSERT_TRUE(run("SRR2931415", 2, 4).status.ok());
  ASSERT_TRUE(run("SRR2931415", 4, 8).status.ok());
  EXPECT_EQ(ReferenceDb::builds() - before, 1u);

  // The runner keeps it resident: an aligner over the same reference
  // finds it, and it lives on after that aligner until the runner goes.
  std::weak_ptr<const ReferenceDb> weak;
  {
    const MiniBlastAligner aligner(catalog_.generateReference().bases);
    EXPECT_EQ(ReferenceDb::builds() - before, 1u);
    weak = aligner.db();
  }
  EXPECT_FALSE(weak.expired());
  runner_ = nullptr;
  EXPECT_TRUE(weak.expired());
}

TEST_F(MagicBlastAppTest, CheckpointPayloadsMatchADirectComputation) {
  // The plan at progress p covers the first floor(p * n) reads: its
  // payload is the header plus the report of aligning exactly those
  // reads, computed here without the runner.
  const auto result = run("SRR2931415", 2, 4);
  ASSERT_TRUE(result.status.ok()) << result.status;
  ASSERT_TRUE(result.checkpointPlan);
  const auto reads = fromFasta(*store_.get(ndn::Name("/ndn/k8s/data/SRR2931415")));
  ASSERT_TRUE(reads.ok());
  AlignerOptions options;
  options.threads = 2;
  const MiniBlastAligner aligner(catalog_.generateReference().bases, options);

  for (const double progress : {0.0, 0.37, 1.0}) {
    const auto covered = static_cast<std::size_t>(
        progress * static_cast<double>(reads->size()));
    const std::vector<Sequence> prefix(reads->begin(),
                                       reads->begin() + static_cast<std::ptrdiff_t>(covered));
    std::vector<Alignment> alignments;
    (void)aligner.alignAll(prefix, alignments);
    EXPECT_EQ(alignments.empty(), covered == 0) << "progress " << progress;
    const std::string header = "app=magic-blast;offset=" + std::to_string(covered) +
                               ";total=" + std::to_string(reads->size()) + "\n";
    std::vector<std::uint8_t> expected(header.begin(), header.end());
    const auto report = encodeCompressedReport(alignments);
    expected.insert(expected.end(), report.begin(), report.end());
    EXPECT_EQ(result.checkpointPlan(progress), expected) << "progress " << progress;
  }
}

}  // namespace
}  // namespace lidc::genomics
