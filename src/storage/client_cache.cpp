#include "storage/client_cache.hpp"

#include <cassert>

#include "common/check.hpp"

namespace rtdb::storage {

CacheTier ClientCache::tier_of(ObjectId id) const {
  if (memory_.contains(id)) return CacheTier::kMemory;
  if (disk_tier_.contains(id)) return CacheTier::kDisk;
  return CacheTier::kNone;
}

void ClientCache::place_in_memory(ObjectId id, bool dirty) {
  auto demoted = memory_.insert(id, dirty);
  if (!demoted) return;
  // Demotion writes the object to the local disk cache file.
  disk_.write();
  auto evicted = disk_tier_.insert(demoted->id, demoted->dirty);
  if (evicted && on_evict_) on_evict_(evicted->id, evicted->dirty);
}

bool ClientCache::access(ObjectId id, bool write, sim::Simulator::Callback done) {
  assert(done);
  // One probe per tier: the memory tier's lookup is also its hit, and the
  // disk tier's lookup is also its removal.
  if (memory_.reference_if_resident(id, write)) {
    hits_.inc();
    sim_.after(config_.memory_access_time, std::move(done));
    return true;
  }
  if (const std::optional<bool> was_dirty = disk_tier_.erase(id)) {
    hits_.inc();
    place_in_memory(id, *was_dirty || write);
    disk_.read(std::move(done));
    return true;
  }
  misses_.inc();
  return false;
}

void ClientCache::insert(ObjectId id, bool dirty) {
  // Already cached (e.g. re-granted lock on a resident object): refresh
  // recency (memory tier) and dirty state in place.
  if (memory_.reference_if_resident(id, dirty)) return;
  if (dirty ? disk_tier_.mark_dirty(id) : disk_tier_.contains(id)) return;
  place_in_memory(id, dirty);
}

bool ClientCache::mark_dirty(ObjectId id) {
  return memory_.mark_dirty(id) || disk_tier_.mark_dirty(id);
}

bool ClientCache::is_dirty(ObjectId id) const {
  return memory_.is_dirty(id) || disk_tier_.is_dirty(id);
}

std::optional<bool> ClientCache::drop(ObjectId id) {
  if (auto dirty = memory_.erase(id)) return dirty;
  return disk_tier_.erase(id);
}

void ClientCache::mark_clean(ObjectId id) {
  // Re-inserting at the same tier with a clean bit: BufferManager has no
  // "clear dirty", so erase + insert preserving tier.
  if (memory_.contains(id)) {
    memory_.erase(id);
    memory_.insert(id, /*dirty=*/false);
  } else if (disk_tier_.contains(id)) {
    disk_tier_.erase(id);
    disk_tier_.insert(id, /*dirty=*/false);
  }
}

std::vector<ObjectId> ClientCache::clear() {
  std::vector<ObjectId> dirty;
  for (const ObjectId id : memory_.resident_pages()) {
    if (memory_.is_dirty(id)) dirty.push_back(id);
  }
  for (const ObjectId id : disk_tier_.resident_pages()) {
    if (disk_tier_.is_dirty(id)) dirty.push_back(id);
  }
  for (const ObjectId id : memory_.resident_pages()) memory_.erase(id);
  for (const ObjectId id : disk_tier_.resident_pages()) disk_tier_.erase(id);
  return dirty;
}

void ClientCache::validate_invariants() const {
  memory_.validate_invariants();
  disk_tier_.validate_invariants();
  for (const ObjectId id : memory_.resident_pages()) {
    RTDB_CHECK(!disk_tier_.contains(id),
               "object %u resident in both cache tiers", id);
  }
}

double ClientCache::hit_rate() const {
  const auto total = hits_.value() + misses_.value();
  return total ? static_cast<double>(hits_.value()) /
                     static_cast<double>(total)
               : 0.0;
}

}  // namespace rtdb::storage
