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
  void setName(Name name) {
    name_ = std::move(name);
    wire_size_cache_ = 0;
  }

  [[nodiscard]] bool canBePrefix() const noexcept { return can_be_prefix_; }
  Interest& setCanBePrefix(bool v) noexcept {
    can_be_prefix_ = v;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] bool mustBeFresh() const noexcept { return must_be_fresh_; }
  Interest& setMustBeFresh(bool v) noexcept {
    must_be_fresh_ = v;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] std::uint32_t nonce() const noexcept { return nonce_; }
  Interest& setNonce(std::uint32_t nonce) noexcept {
    nonce_ = nonce;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] sim::Duration lifetime() const noexcept { return lifetime_; }
  Interest& setLifetime(sim::Duration lifetime) noexcept {
    lifetime_ = lifetime;
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] std::uint8_t hopLimit() const noexcept { return hop_limit_; }
  Interest& setHopLimit(std::uint8_t limit) noexcept {
    hop_limit_ = limit;
    wire_size_cache_ = 0;
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
    wire_size_cache_ = 0;
    return *this;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& applicationParameters()
      const noexcept {
    return app_parameters_;
  }
  Interest& setApplicationParameters(std::vector<std::uint8_t> params) {
    app_parameters_ = std::move(params);
    wire_size_cache_ = 0;
    return *this;
  }
  Interest& setApplicationParameters(std::string_view text) {
    app_parameters_.assign(text.begin(), text.end());
    wire_size_cache_ = 0;
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

  /// Size of the wire encoding in bytes (used for link transmission
  /// delay and per-link byte accounting). Encoding a packet just to
  /// count it is the single hottest forwarder cost, so the size is
  /// cached until a wire-visible setter dirties it (trace context and
  /// flow label ride outside the encoding and never invalidate).
  [[nodiscard]] std::size_t wireSize() const {
    if (wire_size_cache_ == 0) wire_size_cache_ = wireEncode().size();
    return wire_size_cache_;
  }

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
  /// 0 = unknown (a TLV encoding is never empty).
  mutable std::size_t wire_size_cache_ = 0;
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
    invalidateCaches();
  }

  [[nodiscard]] const std::vector<std::uint8_t>& content() const noexcept {
    return content_;
  }
  Data& setContent(std::vector<std::uint8_t> content) {
    content_ = std::move(content);
    invalidateCaches();
    return *this;
  }
  Data& setContent(std::string_view text) {
    content_.assign(text.begin(), text.end());
    invalidateCaches();
    return *this;
  }
  [[nodiscard]] std::string contentAsString() const {
    return {content_.begin(), content_.end()};
  }

  [[nodiscard]] ContentType contentType() const noexcept { return content_type_; }
  Data& setContentType(ContentType type) noexcept {
    content_type_ = type;
    invalidateCaches();
    return *this;
  }

  /// How long a cached copy may satisfy MustBeFresh Interests.
  [[nodiscard]] sim::Duration freshnessPeriod() const noexcept { return freshness_; }
  Data& setFreshnessPeriod(sim::Duration period) noexcept {
    freshness_ = period;
    invalidateCaches();
    return *this;
  }

  /// Computes and attaches the (simulated DigestSha256-style) signature.
  Data& sign();
  /// True if a signature is present and matches the payload.
  [[nodiscard]] bool verify() const;
  /// True once sign() has run (or a signature arrived on the wire).
  [[nodiscard]] bool hasSignature() const noexcept { return signature_.has_value(); }
  /// Digest of the packet as it stands now — the value a matching
  /// excludeDigest hint would carry for this exact copy. Memoized: the
  /// forwarder gate, CS admission, CS hits and the consumer all verify
  /// the same bytes, and copies carry the memo along.
  [[nodiscard]] std::uint64_t contentDigest() const {
    if (!digest_cache_) digest_cache_ = computeDigest();
    return *digest_cache_;
  }

  [[nodiscard]] tlv::Buffer wireEncode() const;
  static Result<Data> wireDecode(std::span<const std::uint8_t> wire);

  /// Cached like Interest::wireSize(): flow attribution and the face
  /// byte counters ask for the size of every Data crossing a link, and
  /// re-encoding a 32 KiB payload per query would dwarf the tap itself.
  [[nodiscard]] std::size_t wireSize() const {
    if (wire_size_cache_ == 0) wire_size_cache_ = wireEncode().size();
    return wire_size_cache_;
  }

 private:
  [[nodiscard]] std::uint64_t computeDigest() const;
  /// Every setter of a digest input (name, content, content type,
  /// freshness) also changes the encoding, so both caches go together.
  void invalidateCaches() noexcept {
    wire_size_cache_ = 0;
    digest_cache_.reset();
  }

  Name name_;
  std::vector<std::uint8_t> content_;
  ContentType content_type_ = ContentType::kBlob;
  sim::Duration freshness_ = sim::Duration::millis(0);
  std::optional<std::uint64_t> signature_;
  /// 0 = unknown (a TLV encoding is never empty).
  mutable std::size_t wire_size_cache_ = 0;
  mutable std::optional<std::uint64_t> digest_cache_;
};

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
