#include "qos/tenant.hpp"

namespace lidc::qos {

bool isValidTenantId(const std::string& id) noexcept {
  if (id.empty() || id.size() > 48) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status TenantRegistry::registerTenant(TenantSpec spec) {
  if (!isValidTenantId(spec.id)) {
    return Status::InvalidArgument("invalid tenant id '" + spec.id + "'");
  }
  if (spec.weight <= 0.0) {
    return Status::InvalidArgument("tenant '" + spec.id +
                                   "' weight must be > 0");
  }
  auto [it, inserted] = tenants_.try_emplace(spec.id);
  if (!inserted) {
    return Status::AlreadyExists("tenant '" + spec.id + "' already registered");
  }
  it->second.spec = std::move(spec);
  if (registry_ != nullptr) exportTenant(it->first, it->second);
  return Status::Ok();
}

const TenantSpec* TenantRegistry::find(const std::string& id) const noexcept {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second.spec;
}

std::vector<std::string> TenantRegistry::ids() const {
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [id, entry] : tenants_) out.push_back(id);
  return out;
}

Status TenantRegistry::chargePublish(const std::string& id, std::uint64_t bytes) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + id + "'");
  }
  Entry& entry = it->second;
  const std::uint64_t budget = entry.spec.quota.maxPublishBytes;
  PublishCounters& publish = *entry.publish;
  if (budget != 0 && publish.bytes + bytes > budget) {
    publish.rejects.inc();
    return Status::ResourceExhausted(
        "tenant '" + id + "' publish quota exhausted (" +
        std::to_string(publish.bytes + bytes) + " > " +
        std::to_string(budget) + " bytes)");
  }
  publish.bytes.inc(bytes);
  return Status::Ok();
}

std::uint64_t TenantRegistry::publishedBytes(const std::string& id) const noexcept {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? 0 : it->second.publish->bytes;
}

std::uint64_t TenantRegistry::publishRejects(const std::string& id) const noexcept {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? 0 : it->second.publish->rejects;
}

void TenantRegistry::exportTenant(const std::string& id, const Entry& entry) {
  const telemetry::Labels labels{{"tenant", id}};
  registry_->adopt("lidc_qos_publish_bytes", labels,
                   {entry.publish, &entry.publish->bytes});
  registry_->adopt("lidc_qos_publish_rejected_total", labels,
                   {entry.publish, &entry.publish->rejects});
}

void TenantRegistry::attachTelemetry(telemetry::MetricsRegistry& registry) {
  registry_ = &registry;
  for (const auto& [id, entry] : tenants_) exportTenant(id, entry);
}

}  // namespace lidc::qos
