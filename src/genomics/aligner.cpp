#include "genomics/aligner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <tuple>

#include "common/thread_pool.hpp"

namespace lidc::genomics {

std::string Alignment::toRecord() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\t%u\t%u\t%u\t%u\t%u\t%c\t%d\t%.4f", readId.c_str(),
                refStart, readStart, length, matches, mismatches,
                reverseStrand ? '-' : '+', score, identity());
  return buf;
}

MiniBlastAligner::MiniBlastAligner(std::string reference, AlignerOptions options)
    : db_(ReferenceDb::get(std::move(reference), options.k, options.maxSeedOccurrences)),
      options_(options) {}

Alignment MiniBlastAligner::extend(std::string_view read, std::uint32_t readPos,
                                   std::uint32_t refPos, AlignerStats& stats) const {
  const std::string& reference = db_->reference();
  const int match = options_.matchScore;
  const int mismatch = -options_.mismatchPenalty;

  // Seed region scores as all-match (the seed is exact by construction).
  std::uint32_t left = 0;   // bases extended to the left of the seed start
  std::uint32_t right = 0;  // bases extended past the seed end
  const unsigned k = options_.k;

  int score = static_cast<int>(k) * match;
  std::uint32_t matches = k;
  std::uint32_t mismatches = 0;

  // Right extension with x-drop.
  {
    int best = score;
    int current = score;
    std::uint32_t bestRight = 0;
    std::uint32_t bestMatches = matches;
    std::uint32_t bestMismatches = mismatches;
    std::uint32_t m = matches;
    std::uint32_t mm = mismatches;
    std::uint32_t i = 0;
    while (readPos + k + i < read.size() &&
           refPos + k + i < reference.size()) {
      ++stats.basesExamined;
      if (read[readPos + k + i] == reference[refPos + k + i]) {
        current += match;
        ++m;
      } else {
        current += mismatch;
        ++mm;
      }
      ++i;
      if (current > best) {
        best = current;
        bestRight = i;
        bestMatches = m;
        bestMismatches = mm;
      }
      if (best - current > options_.xDrop) break;
    }
    score = best;
    right = bestRight;
    matches = bestMatches;
    mismatches = bestMismatches;
  }

  // Left extension with x-drop.
  {
    int best = score;
    int current = score;
    std::uint32_t bestLeft = 0;
    std::uint32_t bestMatches = matches;
    std::uint32_t bestMismatches = mismatches;
    std::uint32_t m = matches;
    std::uint32_t mm = mismatches;
    std::uint32_t i = 0;
    while (i < readPos && i < refPos) {
      ++stats.basesExamined;
      if (read[readPos - 1 - i] == reference[refPos - 1 - i]) {
        current += match;
        ++m;
      } else {
        current += mismatch;
        ++mm;
      }
      ++i;
      if (current > best) {
        best = current;
        bestLeft = i;
        bestMatches = m;
        bestMismatches = mm;
      }
      if (best - current > options_.xDrop) break;
    }
    score = best;
    left = bestLeft;
    matches = bestMatches;
    mismatches = bestMismatches;
  }

  Alignment alignment;
  alignment.refStart = refPos - left;
  alignment.readStart = readPos - left;
  alignment.length = left + k + right;
  alignment.matches = matches;
  alignment.mismatches = mismatches;
  alignment.score = score;
  return alignment;
}

void MiniBlastAligner::alignStrand(const std::string& readId, std::string_view bases,
                                   bool reverseStrand, std::vector<Alignment>& out,
                                   AlignerStats& stats) const {
  const unsigned k = options_.k;
  if (bases.size() < k) return;

  // Seed: collect hits binned by diagonal (refPos - readPos).
  const KmerIndex& index = db_->index();
  std::map<std::int64_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>> diagonals;
  // Stride seeds by k/2 for speed, as real seeders do.
  const std::size_t stride = std::max<std::size_t>(1, k / 2);
  for (std::size_t pos = 0; pos + k <= bases.size(); pos += stride) {
    std::uint64_t packed = 0;
    if (!KmerIndex::pack(bases, pos, k, packed)) continue;
    for (const std::uint32_t refPos : index.find(packed)) {
      ++stats.seedHits;
      const std::int64_t diagonal =
          static_cast<std::int64_t>(refPos) - static_cast<std::int64_t>(pos);
      diagonals[diagonal].emplace_back(static_cast<std::uint32_t>(pos), refPos);
    }
  }
  if (diagonals.empty()) return;

  // Rank diagonals by hit count; extend the strongest few.
  std::vector<std::pair<std::size_t, std::int64_t>> ranked;
  ranked.reserve(diagonals.size());
  for (const auto& [diagonal, hits] : diagonals) {
    ranked.emplace_back(hits.size(), diagonal);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  Alignment best;
  bool haveBest = false;
  const std::size_t tryCount = std::min(ranked.size(), options_.maxDiagonalsPerRead);
  for (std::size_t r = 0; r < tryCount; ++r) {
    const auto& hits = diagonals[ranked[r].second];
    // Extend from the first seed on the diagonal.
    const auto [readPos, refPos] = hits.front();
    ++stats.extensions;
    Alignment candidate = extend(bases, readPos, refPos, stats);
    if (!haveBest || candidate.score > best.score) {
      best = candidate;
      haveBest = true;
    }
  }

  if (haveBest && best.score >= options_.minScore &&
      best.identity() >= options_.minIdentity) {
    best.readId = readId;
    best.reverseStrand = reverseStrand;
    out.push_back(std::move(best));
  }
}

std::vector<Alignment> MiniBlastAligner::alignRead(const Sequence& read,
                                                   AlignerStats& stats) const {
  std::vector<Alignment> out;
  ++stats.readsProcessed;
  alignStrand(read.id, read.bases, false, out, stats);
  const std::string rc = reverseComplement(read.bases);
  alignStrand(read.id, rc, true, out, stats);
  if (!out.empty()) {
    ++stats.readsAligned;
    stats.alignmentsReported += out.size();
  }
  return out;
}

AlignerStats MiniBlastAligner::alignAll(const std::vector<Sequence>& reads,
                                        std::vector<Alignment>& out) const {
  AlignerStats total;
  // Deterministic output order in both serial and parallel modes. The
  // order must be total: a read can align on both strands at one
  // refStart, and std::sort leaves such ties in whatever order the
  // worker threads appended them.
  auto sortOutput = [&out] {
    std::sort(out.begin(), out.end(), [](const Alignment& a, const Alignment& b) {
      return std::tie(a.readId, a.refStart, a.reverseStrand, a.readStart, a.length) <
             std::tie(b.readId, b.refStart, b.reverseStrand, b.readStart, b.length);
    });
  };

  if (options_.threads <= 1) {
    for (const auto& read : reads) {
      auto alignments = alignRead(read, total);
      out.insert(out.end(), std::make_move_iterator(alignments.begin()),
                 std::make_move_iterator(alignments.end()));
    }
    sortOutput();
    return total;
  }

  // Thread-parallel across reads; per-thread stats merged at the end.
  ThreadPool pool(options_.threads);
  std::mutex mergeMutex;
  pool.parallelFor(reads.size(), [&, this](std::size_t i) {
    AlignerStats local;
    auto alignments = alignRead(reads[i], local);
    std::lock_guard<std::mutex> lock(mergeMutex);
    total.readsProcessed += local.readsProcessed;
    total.readsAligned += local.readsAligned;
    total.seedHits += local.seedHits;
    total.extensions += local.extensions;
    total.basesExamined += local.basesExamined;
    total.alignmentsReported += local.alignmentsReported;
    out.insert(out.end(), std::make_move_iterator(alignments.begin()),
               std::make_move_iterator(alignments.end()));
  });
  sortOutput();
  return total;
}

std::vector<std::uint8_t> encodeCompressedReport(
    const std::vector<Alignment>& alignments) {
  // Build the plain-text report, then apply byte-level RLE — a stand-in
  // for the gzip compression of Magic-BLAST output. RLE on tab-separated
  // numeric text achieves a modest real reduction; what matters for the
  // Table I shape is that size scales with alignment count.
  std::string report;
  report.reserve(alignments.size() * 48);
  for (const auto& alignment : alignments) {
    report += alignment.toRecord();
    report += '\n';
  }

  std::vector<std::uint8_t> compressed;
  compressed.reserve(report.size() / 2 + 16);
  std::size_t i = 0;
  while (i < report.size()) {
    const char byte = report[i];
    std::size_t run = 1;
    while (i + run < report.size() && report[i + run] == byte && run < 255) ++run;
    compressed.push_back(static_cast<std::uint8_t>(run));
    compressed.push_back(static_cast<std::uint8_t>(byte));
    i += run;
  }
  return compressed;
}

}  // namespace lidc::genomics
