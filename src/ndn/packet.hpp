// NDN Interest / Data / Nack packets with real TLV wire encoding.
// LIDC compute requests are Interests whose names carry semantic job
// descriptions; results and acknowledgements travel as Data.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ndn/name.hpp"
#include "ndn/tlv.hpp"
#include "sim/time.hpp"
#include "telemetry/flow_label.hpp"
#include "telemetry/trace_context.hpp"

namespace lidc::ndn {

/// An Interest requests the Data identified (or prefixed) by its Name.
class Interest {
 public:
  Interest() = default;
  explicit Interest(Name name) : name_(std::move(name)) {}

  [[nodiscard]] const Name& name() const noexcept { return name_; }
  void setName(Name name) { name_ = std::move(name); }

  [[nodiscard]] bool canBePrefix() const noexcept { return can_be_prefix_; }
  Interest& setCanBePrefix(bool v) noexcept {
    can_be_prefix_ = v;
    return *this;
  }

  [[nodiscard]] bool mustBeFresh() const noexcept { return must_be_fresh_; }
  Interest& setMustBeFresh(bool v) noexcept {
    must_be_fresh_ = v;
    return *this;
  }

  [[nodiscard]] std::uint32_t nonce() const noexcept { return nonce_; }
  Interest& setNonce(std::uint32_t nonce) noexcept {
    nonce_ = nonce;
    return *this;
  }

  [[nodiscard]] sim::Duration lifetime() const noexcept { return lifetime_; }
  Interest& setLifetime(sim::Duration lifetime) noexcept {
    lifetime_ = lifetime;
    return *this;
  }

  [[nodiscard]] std::uint8_t hopLimit() const noexcept { return hop_limit_; }
  Interest& setHopLimit(std::uint8_t limit) noexcept {
    hop_limit_ = limit;
    return *this;
  }

  /// Digest exclusion hint: a re-expressed Interest carrying the digest
  /// of a Data packet that failed verification asks content stores to
  /// skip that exact (poisoned) copy and go further upstream.
  [[nodiscard]] std::optional<std::uint64_t> excludeDigest() const noexcept {
    return exclude_digest_;
  }
  Interest& setExcludeDigest(std::uint64_t digest) noexcept {
    exclude_digest_ = digest;
    return *this;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& applicationParameters()
      const noexcept {
    return app_parameters_;
  }
  Interest& setApplicationParameters(std::vector<std::uint8_t> params) {
    app_parameters_ = std::move(params);
    return *this;
  }
  Interest& setApplicationParameters(std::string_view text) {
    app_parameters_.assign(text.begin(), text.end());
    return *this;
  }

  /// Trace context carried alongside the packet (like an NDNLPv2
  /// hop-by-hop header): not part of the name, the wire encoding, or
  /// CS/PIT matching, so tracing never perturbs forwarding behaviour.
  [[nodiscard]] telemetry::TraceContext traceContext() const noexcept {
    return trace_;
  }
  Interest& setTraceContext(telemetry::TraceContext ctx) noexcept {
    trace_ = ctx;
    return *this;
  }

  /// Flow-attribution label, carried hop-by-hop exactly like the trace
  /// context: never part of the name/wire/CS/PIT matching, so flow
  /// accounting cannot perturb forwarding or result caching.
  [[nodiscard]] const telemetry::FlowLabel& flowLabel() const noexcept {
    return flow_label_;
  }
  Interest& setFlowLabel(telemetry::FlowLabel label) {
    flow_label_ = std::move(label);
    return *this;
  }

  /// Full TLV wire encoding.
  [[nodiscard]] tlv::Buffer wireEncode() const;
  static Result<Interest> wireDecode(std::span<const std::uint8_t> wire);

  /// Size of wireEncode() in bytes (link transmission delay and
  /// per-link byte accounting ask for it on every hop). Computed from
  /// the TLV length rules without encoding or allocating; the trace
  /// context and flow label ride outside the encoding and never count.
  [[nodiscard]] std::size_t wireSize() const noexcept;

 private:
  Name name_;
  bool can_be_prefix_ = false;
  bool must_be_fresh_ = false;
  std::uint32_t nonce_ = 0;
  sim::Duration lifetime_ = sim::Duration::millis(4000);
  std::uint8_t hop_limit_ = 64;
  std::optional<std::uint64_t> exclude_digest_;
  std::vector<std::uint8_t> app_parameters_;
  telemetry::TraceContext trace_;
  telemetry::FlowLabel flow_label_;
};

/// Content type codes (subset of the NDN spec).
enum class ContentType : std::uint32_t {
  kBlob = 0,
  kLink = 1,
  kKey = 2,
  kNack = 3,  // application-level NACK content
};

/// A Data packet carries named, signed content.
class Data {
 public:
  Data() = default;
  explicit Data(Name name) : name_(std::move(name)) {}

  [[nodiscard]] const Name& name() const noexcept { return name_; }
  void setName(Name name) {
    name_ = std::move(name);
    invalidateDigest();
  }

  [[nodiscard]] const std::vector<std::uint8_t>& content() const noexcept {
    return content_;
  }
  Data& setContent(std::vector<std::uint8_t> content) {
    content_ = std::move(content);
    invalidateDigest();
    return *this;
  }
  Data& setContent(std::string_view text) {
    content_.assign(text.begin(), text.end());
    invalidateDigest();
    return *this;
  }
  [[nodiscard]] std::string contentAsString() const {
    return {content_.begin(), content_.end()};
  }

  [[nodiscard]] ContentType contentType() const noexcept { return content_type_; }
  Data& setContentType(ContentType type) noexcept {
    content_type_ = type;
    invalidateDigest();
    return *this;
  }

  /// How long a cached copy may satisfy MustBeFresh Interests.
  [[nodiscard]] sim::Duration freshnessPeriod() const noexcept { return freshness_; }
  Data& setFreshnessPeriod(sim::Duration period) noexcept {
    freshness_ = period;
    invalidateDigest();
    return *this;
  }

  /// Computes and attaches the (simulated DigestSha256-style) signature.
  Data& sign();
  /// True if a signature is present and matches the payload.
  [[nodiscard]] bool verify() const;
  /// True once sign() has run (or a signature arrived on the wire).
  [[nodiscard]] bool hasSignature() const noexcept { return has_signature_; }
  /// Digest of the packet as it stands now — the value a matching
  /// excludeDigest hint would carry for this exact copy. Memoized: the
  /// forwarder gate, CS admission, CS hits and the consumer all verify
  /// the same bytes, and copies carry the memo along.
  [[nodiscard]] std::uint64_t contentDigest() const {
    if (!has_digest_) {
      digest_ = computeDigest();
      has_digest_ = true;
    }
    return digest_;
  }

  [[nodiscard]] tlv::Buffer wireEncode() const;
  static Result<Data> wireDecode(std::span<const std::uint8_t> wire);

  /// Size of wireEncode() in bytes, computed like Interest::wireSize():
  /// flow attribution and the face byte counters ask for it on every
  /// Data crossing a link, so it never encodes the payload.
  [[nodiscard]] std::size_t wireSize() const noexcept;

 private:
  // Stores entries as raw fields and rebuilds the exact packet on a hit,
  // signature and digest memo included.
  friend class ContentStore;

  [[nodiscard]] std::uint64_t computeDigest() const;
  /// Every setter of a digest input (name, content, content type,
  /// freshness) drops the memo.
  void invalidateDigest() noexcept { has_digest_ = false; }

  Name name_;
  std::vector<std::uint8_t> content_;
  sim::Duration freshness_ = sim::Duration::millis(0);
  std::uint64_t signature_ = 0;
  mutable std::uint64_t digest_ = 0;
  ContentType content_type_ = ContentType::kBlob;
  // Presence flags rather than two std::optionals: every link delivery
  // and Content Store entry holds a Data, and this packs it in 80 bytes.
  bool has_signature_ = false;
  mutable bool has_digest_ = false;
};

static_assert(sizeof(Data) <= 80);

/// Network NACK reasons (NDNLPv2 subset).
enum class NackReason : std::uint32_t {
  kNone = 0,
  kCongestion = 50,
  kDuplicate = 100,
  /// Producer-side quota/rate rejection. Less severe than kNoRoute (the
  /// consumer can retry after backoff) but unlike kCongestion it must
  /// not trigger an immediate failover storm: the consumer's quota is
  /// exhausted everywhere, not just on this path.
  kQuotaExceeded = 140,
  kNoRoute = 150,
};

std::string_view nackReasonName(NackReason reason) noexcept;

/// A Nack rejects a specific Interest (carried alongside it).
class Nack {
 public:
  Nack() = default;
  Nack(Interest interest, NackReason reason)
      : interest_(std::move(interest)), reason_(reason) {}

  [[nodiscard]] const Interest& interest() const noexcept { return interest_; }
  [[nodiscard]] NackReason reason() const noexcept { return reason_; }

 private:
  Interest interest_;
  NackReason reason_ = NackReason::kNone;
};

}  // namespace lidc::ndn
