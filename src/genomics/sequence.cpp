#include "genomics/sequence.hpp"

#include <algorithm>
#include <cassert>

namespace lidc::genomics {

std::string reverseComplement(std::string_view bases) {
  std::string out(bases.size(), 'N');
  std::transform(bases.rbegin(), bases.rend(), out.begin(), [](char base) {
    return detail::kBaseTables.complement[static_cast<unsigned char>(base)];
  });
  return out;
}

std::string randomBases(Rng& rng, std::size_t length) {
  std::string out;
  out.resize(length);
  for (auto& base : out) base = codeBase(static_cast<std::uint8_t>(rng.uniform(4)));
  return out;
}

std::string mutatedFragment(Rng& rng, std::string_view reference,
                            std::size_t fragmentLength, double mutationRate) {
  assert(!reference.empty());
  fragmentLength = std::min(fragmentLength, reference.size());
  const std::size_t maxStart = reference.size() - fragmentLength;
  const std::size_t start = maxStart == 0 ? 0 : rng.uniform(maxStart + 1);
  std::string fragment(reference.substr(start, fragmentLength));
  for (auto& base : fragment) {
    if (rng.bernoulli(mutationRate)) {
      // Substitute with one of the three other bases.
      const std::uint8_t original = baseCode(base);
      const std::uint8_t replacement =
          static_cast<std::uint8_t>((original + 1 + rng.uniform(3)) % 4);
      base = codeBase(replacement);
    }
  }
  return fragment;
}

std::vector<Sequence> generateReads(Rng& rng, std::string_view reference,
                                    std::size_t readCount, std::size_t readLength,
                                    double derivedFraction, double mutationRate,
                                    const std::string& idPrefix) {
  std::vector<Sequence> reads;
  reads.reserve(readCount);
  for (std::size_t i = 0; i < readCount; ++i) {
    Sequence read;
    read.id = idPrefix + "." + std::to_string(i + 1);
    if (rng.bernoulli(derivedFraction)) {
      read.bases = mutatedFragment(rng, reference, readLength, mutationRate);
      // Half the derived reads come from the opposite strand.
      if (rng.bernoulli(0.5)) read.bases = reverseComplement(read.bases);
    } else {
      read.bases = randomBases(rng, readLength);
    }
    reads.push_back(std::move(read));
  }
  return reads;
}

}  // namespace lidc::genomics
