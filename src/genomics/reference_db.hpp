// The MiniBlast reference database: a reference sequence and its seed
// index, built once and shared, immutable, by every aligner over that
// reference — as Magic-BLAST aligns every sample against one BLAST
// database built for the reference (paper Table I).
//
// Databases are found by content in a process-wide table of weak
// references, so a database lives exactly as long as some aligner or
// runner holds it: stages that overlap or follow one another while it is
// held share one build, and nothing is kept once the last holder drops it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "genomics/kmer_index.hpp"

namespace lidc::genomics {

class ReferenceDb {
 public:
  /// The database of `reference` seeded with k-mers of length `k`, masking
  /// those seen more than `maxSeedOccurrences` times: the resident one with
  /// equal bytes and parameters, else a new build. Thread-safe; concurrent
  /// calls for one reference build it once.
  [[nodiscard]] static std::shared_ptr<const ReferenceDb> get(
      std::string reference, unsigned k, std::size_t maxSeedOccurrences);

  /// Databases built in this process so far.
  [[nodiscard]] static std::uint64_t builds() noexcept;

  ReferenceDb(const ReferenceDb&) = delete;
  ReferenceDb& operator=(const ReferenceDb&) = delete;

  [[nodiscard]] const std::string& reference() const noexcept { return reference_; }
  [[nodiscard]] const KmerIndex& index() const noexcept { return index_; }
  [[nodiscard]] std::size_t maxSeedOccurrences() const noexcept {
    return maxSeedOccurrences_;
  }

 private:
  ReferenceDb(std::string reference, unsigned k, std::size_t maxSeedOccurrences);

  std::string reference_;
  std::size_t maxSeedOccurrences_;
  KmerIndex index_;
};

}  // namespace lidc::genomics
