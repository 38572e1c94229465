// The "magic-blast" application image deployed on LIDC clusters
// (paper SIV): reads a sample and a reference from the data lake PVC,
// runs real MiniBlast alignment, writes the compressed report back to
// the data lake, and reports a *testbed-scale* runtime derived from the
// measured alignment work.
//
// Runtime model (documented in DESIGN.md / EXPERIMENTS.md):
//   runtime = input_bytes / (throughput * threadBenefit(cpu)) * workRatio
//             [* thrashPenalty if memory < workingSet]
// where throughput ~ 120 KB/s is the single-thread Magic-BLAST rate
// implied by Table I, threadBenefit grows only marginally with CPUs
// (Magic-BLAST's pipeline is dominated by a serial stage on this
// workload, which is exactly why Table I shows flat runtimes), and
// workRatio modulates by the measured per-read alignment effort so the
// runtime honestly reflects the data.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "datalake/object_store.hpp"
#include "genomics/datasets.hpp"
#include "k8s/job.hpp"
#include "ndn/name.hpp"

namespace lidc::k8s {
class Cluster;
}  // namespace lidc::k8s

namespace lidc::genomics {

struct MagicBlastConfig {
  ndn::Name dataPrefix{"/ndn/k8s/data"};
  std::string referenceObject = "human-ref";  // under dataPrefix
  double throughputBytesPerSec = 120e3;       // single-thread testbed rate
  double threadBenefitPerExtraCpu = 0.015;    // +1.5% per extra core (nearly flat)
  ByteSize workingSet = ByteSize::fromGiB(3); // human-ref DB working set
  double thrashPenalty = 2.4;                 // mem below working set
  /// Baseline extension work per read used to normalise workRatio;
  /// calibrated so the catalog's default datasets land on Table I's
  /// absolute runtimes (rice ~8h at 4GB/2cpu).
  double baselineBasesPerRead = 41.0;
  /// Aligner threads are capped at this (real threads used for real work).
  std::size_t maxAlignerThreads = 4;
  /// Checkpoint namespace the runner resolves ckpt= args against (the
  /// migration plane's /ndn/k8s/ckpt; payloads live in the same lake).
  ndn::Name ckptPrefix{"/ndn/k8s/ckpt"};
};

/// Arguments understood by the runner (JobSpec::args):
///   "srr_id"  - sample object name under the data prefix (required)
///   "ref"     - reference object name (default: config.referenceObject)
///   "out"     - result object name (default: results/<srr_id>-vs-<ref>)
///   "ckpt"    - resume point "<job_id>/<epoch>": the runner loads
///               <ckptPrefix>/<job_id>/<epoch> from the lake, skips the
///               reads it already covers, merges its partial report into
///               the output, and scales the reported runtime by the
///               remaining fraction. A missing or inconsistent
///               checkpoint falls back to a cold start.
/// The result is written to <dataPrefix>/<out>; AppResult::resultPath
/// carries that name and outputBytes the testbed-scale size. Every run
/// also sets AppResult::checkpointPlan, the incremental-progress hook
/// the CheckpointManager samples: progress p maps to a payload of
/// "app=magic-blast;offset=<reads done>;total=<reads>\n" followed by the
/// compressed partial report of the covered reads. The runner keeps the
/// reference database (ReferenceDb) of its last run resident, so later
/// runs against the same reference reuse its seed index.
k8s::AppRunner makeMagicBlastRunner(datalake::ObjectStore& store,
                                    const DatasetCatalog& catalog,
                                    MagicBlastConfig config = {});

/// Registers "magic-blast" on the cluster (convenience).
void installMagicBlast(k8s::Cluster& cluster, datalake::ObjectStore& store,
                       const DatasetCatalog& catalog, MagicBlastConfig config = {});

}  // namespace lidc::genomics
