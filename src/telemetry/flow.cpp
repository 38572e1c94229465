#include "telemetry/flow.hpp"

#include <algorithm>
#include <sstream>

namespace lidc::telemetry {

namespace {

/// splitmix64: the one-shot mixer used everywhere seeds matter.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the key bytes, folded with a per-row seed.
std::uint64_t hashKey(std::string_view key, std::uint64_t seed) noexcept {
  std::uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return mix64(h);
}

bool safeLabelChar(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '=' ||
         c == '&' || c == ':' || c == '/' || c == '-';
}

void promLine(std::ostringstream& out, const std::string& name,
              const Labels& labels, double value) {
  out << name;
  const std::string ls = labelString(labels);
  if (!ls.empty()) out << '{' << ls << '}';
  std::ostringstream v;
  v << value;
  out << ' ' << v.str() << '\n';
}

}  // namespace

// --- FlowKey -----------------------------------------------------------

std::string FlowKey::toString() const {
  return group + "|" + tenant + "|" + tag;
}

FlowKey FlowKey::fromString(std::string_view s) {
  FlowKey key;
  const std::size_t first = s.find('|');
  if (first == std::string_view::npos) {
    key.group = sanitizeFlowComponent(s);
    return key;
  }
  const std::size_t second = s.find('|', first + 1);
  key.group = sanitizeFlowComponent(s.substr(0, first));
  if (second == std::string_view::npos) {
    key.tenant = sanitizeFlowComponent(s.substr(first + 1));
    return key;
  }
  key.tenant = sanitizeFlowComponent(s.substr(first + 1, second - first - 1));
  key.tag = sanitizeFlowComponent(s.substr(second + 1));
  return key;
}

std::string sanitizeFlowComponent(std::string_view raw) {
  if (raw.empty()) return "-";
  std::string out;
  out.reserve(std::min(raw.size(), kMaxFlowComponent));
  for (const char c : raw) {
    if (out.size() >= kMaxFlowComponent) break;
    // '|' is the FlowKey field separator and must never appear inside
    // a field, even though ':' and '/' pass through for link URIs.
    out.push_back(safeLabelChar(c) && c != '|' ? c : '_');
  }
  return out;
}

FlowKey extractFlowKey(const std::string_view* components, std::size_t count,
                       const FlowLabel& label) {
  FlowKey key;
  if (count >= 3 && components[0] == "ndn" && components[1] == "k8s") {
    key.group = sanitizeFlowComponent(components[2]);
  } else {
    key.group = "other";
  }
  if (!label.tenant.empty()) {
    key.tenant = sanitizeFlowComponent(label.tenant);
  } else if (key.group == "submit" && count >= 4) {
    // /ndn/k8s/submit/<tenant>/<desc...> carries the tenant in-name.
    key.tenant = sanitizeFlowComponent(components[3]);
  } else {
    // Publish names carry "tenant=<t>" as a regular component.
    constexpr std::string_view kPrefix = "tenant=";
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view c = components[i];
      if (c.size() > kPrefix.size() && c.substr(0, kPrefix.size()) == kPrefix) {
        key.tenant = sanitizeFlowComponent(c.substr(kPrefix.size()));
        break;
      }
    }
  }
  if (!label.tag.empty()) key.tag = sanitizeFlowComponent(label.tag);
  return key;
}

// --- CountMinSketch ----------------------------------------------------

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(std::max<std::size_t>(width, 8)) {
  depth = std::max<std::size_t>(depth, 1);
  rows_.assign(width_ * depth, 0);
  seeds_.reserve(depth);
  for (std::size_t d = 0; d < depth; ++d) seeds_.push_back(mix64(seed + d));
}

std::size_t CountMinSketch::cell(std::size_t row,
                                 std::string_view key) const noexcept {
  return row * width_ + hashKey(key, seeds_[row]) % width_;
}

void CountMinSketch::add(std::string_view key, std::uint64_t n) noexcept {
  for (std::size_t d = 0; d < seeds_.size(); ++d) rows_[cell(d, key)] += n;
  total_ += n;
}

std::uint64_t CountMinSketch::estimate(std::string_view key) const noexcept {
  std::uint64_t best = ~std::uint64_t{0};
  for (std::size_t d = 0; d < seeds_.size(); ++d) {
    best = std::min(best, rows_[cell(d, key)]);
  }
  return seeds_.empty() ? 0 : best;
}

// --- SpaceSaving -------------------------------------------------------

SpaceSaving::SpaceSaving(std::size_t k, std::size_t sketchWidth,
                         std::size_t sketchDepth)
    : k_(std::max<std::size_t>(k, 1)), cms_(sketchWidth, sketchDepth) {}

void SpaceSaving::add(const std::string& key, std::uint64_t n) noexcept {
  cms_.add(key, n);
  if (auto it = slots_.find(key); it != slots_.end()) {
    it->second.count += n;
    return;
  }
  if (slots_.size() < k_) {
    slots_.emplace(key, Slot{n, 0});
    return;
  }
  // Deterministic minimum: smallest count, then lexicographically
  // smallest key (map order supplies the tiebreak).
  auto victim = slots_.begin();
  for (auto it = std::next(slots_.begin()); it != slots_.end(); ++it) {
    if (it->second.count < victim->second.count) victim = it;
  }
  // Count-Min gate: a key whose estimated frequency cannot beat the
  // current minimum is noise — charging it the victim's count would
  // just churn real heavy hitters out of the monitored set.
  const std::uint64_t floor = victim->second.count;
  if (cms_.estimate(key) <= floor) return;
  slots_.erase(victim);
  slots_.emplace(key, Slot{floor + n, floor});
}

std::vector<TopKEntry> SpaceSaving::top() const {
  std::vector<TopKEntry> out;
  out.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) {
    out.push_back({key, slot.count, slot.error});
  }
  std::sort(out.begin(), out.end(), [](const TopKEntry& a, const TopKEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

// --- LinkFlowStats -----------------------------------------------------

LinkFlowStats::LinkFlowStats(sim::Simulator& sim, std::uint64_t bucketWidthNs)
    : sim_(sim), bucket_width_ns_(std::max<std::uint64_t>(bucketWidthNs, 1)) {}

#if !defined(LIDC_TELEMETRY_DISABLED)
void LinkFlowStats::addBytes(std::uint64_t wireBytes) noexcept {
  bytes_.fetch_add(wireBytes, std::memory_order_relaxed);
  const std::uint64_t epoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  Bucket& b = ring_[epoch % kBuckets];
  std::uint64_t seen = b.epoch.load(std::memory_order_relaxed);
  if (seen != epoch) {
    // First writer into a recycled bucket zeroes it; CAS losers just
    // add below — the winner's store is already visible.
    if (b.epoch.compare_exchange_strong(seen, epoch,
                                        std::memory_order_relaxed)) {
      b.bytes.store(0, std::memory_order_relaxed);
    }
  }
  b.bytes.fetch_add(wireBytes, std::memory_order_relaxed);
}
#endif

std::uint64_t LinkFlowStats::trailingWindowBytes() const noexcept {
  const std::uint64_t nowEpoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  std::uint64_t sum = 0;
  for (const Bucket& b : ring_) {
    const std::uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
    // Complete buckets only: the current epoch is still filling.
    if (epoch == kIdleEpoch || epoch >= nowEpoch) continue;
    if (nowEpoch - epoch > kBuckets - 1) continue;  // recycled, stale
    sum += b.bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t LinkFlowStats::trailingWindowNs() const noexcept {
  const std::uint64_t nowEpoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  const std::uint64_t complete = std::min<std::uint64_t>(nowEpoch, kBuckets - 1);
  return complete * bucket_width_ns_;
}

// --- FlowAccountant ----------------------------------------------------

FlowAccountant::FlowAccountant(sim::Simulator& sim,
                               FlowAccountantOptions options)
    : sim_(sim), options_(options) {}

LinkFlowStats* FlowAccountant::registerLink(const std::string& link) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find(link);
  if (it == links_.end()) {
    LinkEntry entry;
    entry.stats = std::make_unique<LinkFlowStats>(
        sim_, static_cast<std::uint64_t>(options_.bucketWidth.toNanos()));
    entry.talkers = std::make_unique<SpaceSaving>(
        options_.topK, options_.sketchWidth, options_.sketchDepth);
    it = links_.emplace(link, std::move(entry)).first;
  }
  return it->second.stats.get();
}

LinkFlowStats* FlowAccountant::link(const std::string& link) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : it->second.stats.get();
}

void FlowAccountant::setLinkCapacity(const std::string& link,
                                     double bitsPerSec) {
  registerLink(link);
  std::lock_guard<std::mutex> lock(mutex_);
  links_[link].capacityBits = bitsPerSec;
}

std::vector<std::string> FlowAccountant::linkNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(links_.size());
  for (const auto& [name, entry] : links_) out.push_back(name);
  return out;
}

const FlowAccountant::LinkEntry* FlowAccountant::find(
    const std::string& link) const {
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

void FlowAccountant::attribute(const std::string& link, const FlowKey& key,
                               std::uint64_t bytes, bool fromCache) {
#if defined(LIDC_TELEMETRY_DISABLED)
  (void)link;
  (void)key;
  (void)bytes;
  (void)fromCache;
#else
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find(link);
  if (it == links_.end()) return;
  LinkEntry& entry = it->second;
  if (fromCache) {
    entry.stats->onCsBytes(bytes);
  } else {
    entry.stats->onUpstreamBytes(bytes);
  }
  entry.talkers->add(key.toString(), bytes);
  entry.tenantBytes[key.tenant] += bytes;
  entry.attributedBytes += bytes;
  revision_.fetch_add(1, std::memory_order_relaxed);
#endif
}

void FlowAccountant::recordTransfer(const FlowKey& key, std::uint64_t bytes) {
#if defined(LIDC_TELEMETRY_DISABLED)
  (void)key;
  (void)bytes;
#else
  std::lock_guard<std::mutex> lock(mutex_);
  staged_[key] += bytes;
  staged_total_ += bytes;
  revision_.fetch_add(1, std::memory_order_relaxed);
#endif
}

std::uint64_t FlowAccountant::stagedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staged_total_;
}

std::map<FlowKey, std::uint64_t> FlowAccountant::stagedLedger() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staged_;
}

std::uint64_t FlowAccountant::stagedBytes(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string wanted = sanitizeFlowComponent(tenant);
  std::uint64_t sum = 0;
  for (const auto& [key, bytes] : staged_) {
    if (key.tenant == wanted) sum += bytes;
  }
  return sum;
}

double FlowAccountant::utilization(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  if (entry == nullptr || entry->capacityBits <= 0) return 0.0;
  const std::uint64_t windowNs = entry->stats->trailingWindowNs();
  if (windowNs == 0) return 0.0;
  const double bits = static_cast<double>(entry->stats->trailingWindowBytes()) * 8.0;
  const double seconds = static_cast<double>(windowNs) * 1e-9;
  return bits / (seconds * entry->capacityBits);
}

double FlowAccountant::dominantShare(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  if (entry == nullptr || entry->attributedBytes == 0) return 0.0;
  std::uint64_t best = 0;
  for (const auto& [tenant, bytes] : entry->tenantBytes) {
    if (tenant == "-") continue;  // unattributed traffic dominates nothing
    best = std::max(best, bytes);
  }
  return static_cast<double>(best) / static_cast<double>(entry->attributedBytes);
}

std::string FlowAccountant::dominantTenant(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  if (entry == nullptr) return "-";
  std::string bestTenant = "-";
  std::uint64_t best = 0;
  for (const auto& [tenant, bytes] : entry->tenantBytes) {
    if (tenant == "-") continue;
    if (bytes > best) {  // map order makes ties lexicographic-first
      best = bytes;
      bestTenant = tenant;
    }
  }
  return bestTenant;
}

std::vector<TopKEntry> FlowAccountant::topTalkers(
    const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  return entry == nullptr ? std::vector<TopKEntry>{} : entry->talkers->top();
}

std::string FlowAccountant::toPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, entry] : links_) {
    const Labels link{{"link", name}};
    const LinkFlowStats& s = *entry.stats;
    promLine(out, "lidc_link_interests_total", link,
             static_cast<double>(s.interests()));
    promLine(out, "lidc_link_data_total", link,
             static_cast<double>(s.dataPackets()));
    promLine(out, "lidc_link_nacks_total", link,
             static_cast<double>(s.nacks()));
    promLine(out, "lidc_link_bytes_total", link,
             static_cast<double>(s.bytes()));
    promLine(out, "lidc_link_cs_bytes_total", link,
             static_cast<double>(s.csBytes()));
    promLine(out, "lidc_link_upstream_bytes_total", link,
             static_cast<double>(s.upstreamBytes()));
    promLine(out, "lidc_link_capacity_bits_per_sec", link, entry.capacityBits);
    // Inline recomputation (find() under the already-held lock).
    double util = 0.0;
    if (entry.capacityBits > 0) {
      const std::uint64_t windowNs = s.trailingWindowNs();
      if (windowNs > 0) {
        util = static_cast<double>(s.trailingWindowBytes()) * 8.0 /
               (static_cast<double>(windowNs) * 1e-9 * entry.capacityBits);
      }
    }
    promLine(out, "lidc_link_utilization", link, util);
    std::uint64_t best = 0;
    for (const auto& [tenant, bytes] : entry.tenantBytes) {
      if (tenant != "-") best = std::max(best, bytes);
    }
    const double share =
        entry.attributedBytes == 0
            ? 0.0
            : static_cast<double>(best) /
                  static_cast<double>(entry.attributedBytes);
    promLine(out, "lidc_link_dominant_share", link, share);
    for (const auto& [tenant, bytes] : entry.tenantBytes) {
      promLine(out, "lidc_flow_tenant_bytes_total",
               {{"link", name}, {"tenant", tenant}},
               static_cast<double>(bytes));
    }
    const auto top = entry.talkers->top();
    for (std::size_t i = 0; i < top.size(); ++i) {
      const FlowKey key = FlowKey::fromString(top[i].key);
      promLine(out, "lidc_flow_topk_bytes",
               {{"link", name},
                {"rank", std::to_string(i + 1)},
                {"group", key.group},
                {"tenant", key.tenant},
                {"tag", key.tag}},
               static_cast<double>(top[i].count));
    }
  }
  for (const auto& [key, bytes] : staged_) {
    promLine(out, "lidc_flow_staged_bytes_total",
             {{"tenant", key.tenant}, {"group", key.group}, {"tag", key.tag}},
             static_cast<double>(bytes));
  }
  return out.str();
}

void FlowAccountant::attachTelemetry(MetricsRegistry& registry) {
  collector_ = registry.registerCollector([this, &registry] {
    std::vector<std::string> names = linkNames();
    for (const std::string& name : names) {
      LinkFlowStats* s = nullptr;
      double capacity = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const LinkEntry* entry = find(name);
        if (entry == nullptr) continue;
        s = entry->stats.get();
        capacity = entry->capacityBits;
      }
      const Labels link{{"link", name}};
      registry.counter("lidc_link_interests_total", link).set(s->interests());
      registry.counter("lidc_link_data_total", link).set(s->dataPackets());
      registry.counter("lidc_link_nacks_total", link).set(s->nacks());
      registry.counter("lidc_link_bytes_total", link).set(s->bytes());
      registry.counter("lidc_link_cs_bytes_total", link).set(s->csBytes());
      registry.counter("lidc_link_upstream_bytes_total", link)
          .set(s->upstreamBytes());
      registry.gauge("lidc_link_capacity_bits_per_sec", link).set(capacity);
      registry.gauge("lidc_link_utilization", link).set(utilization(name));
      registry.gauge("lidc_link_dominant_share", link).set(dominantShare(name));
    }
  });
}

}  // namespace lidc::telemetry
