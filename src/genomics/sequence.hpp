// Nucleotide sequences and synthetic-data generation. Stands in for the
// NCBI reference databases and SRA sample files the paper downloads;
// generation is seeded so every bench sees identical data.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace lidc::genomics {

/// A named nucleotide sequence (A/C/G/T only).
struct Sequence {
  std::string id;
  std::string bases;

  [[nodiscard]] std::size_t length() const noexcept { return bases.size(); }
};

namespace detail {
/// 256-entry byte tables: base codes (A/C/G/T -> 0..3, anything else 4)
/// and Watson-Crick complements (anything but A/C/G/T -> 'N').
struct BaseTables {
  std::array<std::uint8_t, 256> code{};
  std::array<char, 256> complement{};
};
inline constexpr BaseTables kBaseTables = [] {
  BaseTables tables;
  tables.code.fill(4);
  tables.complement.fill('N');
  constexpr char kAcgt[] = "ACGT";
  for (std::uint8_t code = 0; code < 4; ++code) {
    const auto base = static_cast<unsigned char>(kAcgt[code]);
    tables.code[base] = code;
    tables.complement[base] = kAcgt[3 - code];
  }
  return tables;
}();
}  // namespace detail

/// Maps A/C/G/T to 0..3; returns 4 for anything else.
constexpr std::uint8_t baseCode(char base) noexcept {
  return detail::kBaseTables.code[static_cast<unsigned char>(base)];
}

constexpr char codeBase(std::uint8_t code) noexcept {
  constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  return code < 4 ? kBases[code] : 'N';
}

/// Watson-Crick reverse complement.
std::string reverseComplement(std::string_view bases);

/// Uniform random sequence of the given length.
std::string randomBases(Rng& rng, std::size_t length);

/// Copies a random substring of `reference` and applies point mutations
/// at the given rate — models reads sequenced from a related genome.
std::string mutatedFragment(Rng& rng, std::string_view reference,
                            std::size_t fragmentLength, double mutationRate);

/// Generates a read set: `derivedFraction` of reads are mutated fragments
/// of the reference (these will align), the rest are random (they won't).
std::vector<Sequence> generateReads(Rng& rng, std::string_view reference,
                                    std::size_t readCount, std::size_t readLength,
                                    double derivedFraction, double mutationRate,
                                    const std::string& idPrefix);

}  // namespace lidc::genomics
