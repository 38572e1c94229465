#include "genomics/reference_db.hpp"

#include <atomic>
#include <mutex>
#include <vector>

namespace lidc::genomics {

namespace {

/// Every database some holder still keeps.
struct Table {
  std::mutex mutex;
  std::vector<std::weak_ptr<const ReferenceDb>> entries;  // guarded by mutex
};

Table& table() {
  static Table instance;
  return instance;
}

std::atomic<std::uint64_t> g_builds{0};

}  // namespace

ReferenceDb::ReferenceDb(std::string reference, unsigned k,
                         std::size_t maxSeedOccurrences)
    : reference_(std::move(reference)),
      maxSeedOccurrences_(maxSeedOccurrences),
      index_(reference_, k, maxSeedOccurrences) {
  g_builds.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const ReferenceDb> ReferenceDb::get(std::string reference, unsigned k,
                                                    std::size_t maxSeedOccurrences) {
  Table& t = table();
  // Held across the build, so a second caller for the same reference
  // waits for it and then finds it.
  std::lock_guard<std::mutex> lock(t.mutex);
  std::erase_if(t.entries, [](const auto& entry) { return entry.expired(); });
  for (const auto& entry : t.entries) {
    auto db = entry.lock();
    if (db && db->index().k() == k && db->maxSeedOccurrences() == maxSeedOccurrences &&
        db->reference() == reference) {
      return db;
    }
  }
  std::shared_ptr<const ReferenceDb> db(
      new ReferenceDb(std::move(reference), k, maxSeedOccurrences));
  t.entries.push_back(db);
  return db;
}

std::uint64_t ReferenceDb::builds() noexcept {
  return g_builds.load(std::memory_order_relaxed);
}

}  // namespace lidc::genomics
