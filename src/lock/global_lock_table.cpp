#include "lock/global_lock_table.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/perf.hpp"
#include "common/poison.hpp"

namespace rtdb::lock {

void GlobalLockTable::validate_invariants() const {
  // Slot ownership: the index names exactly the tracked objects, no two of
  // them share a state, and every other pool state is on the free list.
  std::vector<std::uint8_t> owned(pool_.size(), 0);
  std::size_t indexed = 0;
  for (std::uint32_t i = 0; i < index_.size(); ++i) {
    const std::uint32_t slot = index_[i];
    if (slot == kNoSlot) continue;
    RTDB_CHECK(slot < pool_.size(), "obj %u maps to slot %u past the pool",
               i, slot);
    RTDB_CHECK(!owned[slot], "slot %u is shared by two objects (one is %u)",
               slot, i);
    owned[slot] = 1;
    ++indexed;
  }
  RTDB_CHECK(indexed == tracked_.size(),
             "index maps %zu objects, tracked list names %zu", indexed,
             tracked_.size());
  for (const std::uint32_t slot : free_) {
    RTDB_CHECK(slot < pool_.size(), "free slot %u past the pool", slot);
    RTDB_CHECK(!owned[slot], "free slot %u is owned or listed twice", slot);
    owned[slot] = 1;
    const State& st = pool_[slot];
    common::unpoison(&st, sizeof(State));
    RTDB_CHECK(st.quiescent(), "free slot %u keeps state", slot);
    RTDB_CHECK(st.queue.expired_dropped() == 0,
               "free slot %u keeps an expiry counter", slot);
    common::poison(&st, sizeof(State));
  }
  RTDB_CHECK(indexed + free_.size() == pool_.size(),
             "pool holds %zu states: %zu owned, %zu free", pool_.size(),
             indexed, free_.size());

  for (std::uint32_t pos = 0; pos < tracked_.size(); ++pos) {
    const std::uint32_t i = tracked_[pos];
    RTDB_CHECK(i < index_.size() && index_[i] != kNoSlot,
               "tracked list names obj %u with no state", i);
    const State& st = tracked_state(i);
      RTDB_CHECK(st.tracked_pos == pos, "obj %u tracked-list position is stale",
               i);
    st.queue.validate_invariants();
    for (std::size_t h = 0; h < st.holders.size(); ++h) {
      const GlobalHold& hold = st.holders[h];
      RTDB_CHECK(hold.client != kInvalidClient,
                 "obj %u holder %zu has no client", i, h);
      RTDB_CHECK(hold.mode != LockMode::kNone,
                 "obj %u holder client %d holds kNone", i,
                 hold.client.value());
      for (std::size_t j = h + 1; j < st.holders.size(); ++j) {
        const GlobalHold& o = st.holders[j];
        RTDB_CHECK(o.client != hold.client,
                   "obj %u has duplicate holder client %d", i,
                   hold.client.value());
        RTDB_CHECK(compatible(hold.mode, o.mode),
                   "obj %u holders %d (%s) and %d (%s) are incompatible", i,
                   hold.client.value(), to_string(hold.mode).data(),
                   o.client.value(), to_string(o.mode).data());
      }
    }
    for (std::size_t r = 0; r < st.recalls.size(); ++r) {
      for (std::size_t s = r + 1; s < st.recalls.size(); ++s) {
        RTDB_CHECK(st.recalls[r] != st.recalls[s],
                   "obj %u records a duplicate recall for client %d", i,
                   st.recalls[r].value());
      }
    }
    if (st.circulating) {
      RTDB_CHECK(st.circulating_last != kInvalidClient,
                 "obj %u circulates with no last client", i);
    } else {
      RTDB_CHECK(st.circulating_last == kInvalidClient,
                 "obj %u keeps a stale circulation tail", i);
    }
  }
}

GlobalLockTable::~GlobalLockTable() {
  // The pool destroys every state, free ones included.
  for (const std::uint32_t slot : free_) {
    common::unpoison(&pool_[slot], sizeof(State));
  }
}

GlobalLockTable::State& GlobalLockTable::state(ObjectId obj) {
  const std::size_t i = obj.value();
  if (i >= index_.size()) index_.resize(i + 1, kNoSlot);
  std::uint32_t& slot = index_[i];
  if (slot == kNoSlot) {
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
      common::unpoison(&pool_[slot], sizeof(State));
    }
    pool_[slot].tracked_pos = static_cast<std::uint32_t>(tracked_.size());
    tracked_.push_back(static_cast<std::uint32_t>(i));
  }
  return pool_[slot];
}

const GlobalLockTable::State* GlobalLockTable::state_if_any(
    ObjectId obj) const {
  const std::size_t i = obj.value();
  if (i >= index_.size() || index_[i] == kNoSlot) return nullptr;
  return &pool_[index_[i]];
}

GlobalLockTable::State* GlobalLockTable::state_if_any(ObjectId obj) {
  return const_cast<State*>(std::as_const(*this).state_if_any(obj));
}

void GlobalLockTable::untrack(std::uint32_t obj) {
  const std::uint32_t slot = index_[obj];
  State& st = pool_[slot];
  expired_dropped_retired_ += st.queue.expired_dropped();
  st.holders.clear();
  st.queue.reset();
  st.recalls.clear();
  st.circulating = false;
  st.circulating_last = kInvalidClient;
  const std::uint32_t pos = st.tracked_pos;
  tracked_[pos] = tracked_.back();
  tracked_state(tracked_[pos]).tracked_pos = pos;
  tracked_.pop_back();
  st.tracked_pos = 0;
  index_[obj] = kNoSlot;
  free_.push_back(slot);
  common::poison(&st, sizeof(State));
}

LockMode GlobalLockTable::holder_mode(ObjectId obj, ClientId client) const {
  const State* st = state_if_any(obj);
  if (!st) return LockMode::kNone;
  for (const auto& h : st->holders) {
    if (h.client == client) return h.mode;
  }
  return LockMode::kNone;
}

std::span<const GlobalHold> GlobalLockTable::holders(ObjectId obj) const {
  const State* st = state_if_any(obj);
  if (!st) return {};
  return {st->holders.data(), st->holders.size()};
}

std::vector<ClientId> GlobalLockTable::conflicting_holders(
    ObjectId obj, LockMode mode, ClientId requester) const {
  std::vector<ClientId> result;
  for_each_conflicting(obj, mode, requester,
                       [&](ClientId c) { result.push_back(c); });
  return result;
}

bool GlobalLockTable::has_conflict(ObjectId obj, LockMode mode,
                                   ClientId requester) const {
  RTDB_PERF_COUNT(kGltConflictScans);
  const State* st = state_if_any(obj);
  if (!st) return false;
  for (const auto& h : st->holders) {
    if (h.client != requester && !compatible(h.mode, mode)) return true;
  }
  return false;
}

bool GlobalLockTable::can_grant(ObjectId obj, ClientId client,
                                LockMode mode) const {
  RTDB_PERF_COUNT(kGltConflictScans);
  const State* st = state_if_any(obj);
  if (!st) return true;
  if (st->circulating) return false;  // the object is out on a forward list
  return std::all_of(st->holders.begin(), st->holders.end(),
                     [&](const GlobalHold& h) {
                       return h.client == client || compatible(h.mode, mode);
                     });
}

void GlobalLockTable::add_holder(ObjectId obj, ClientId client,
                                 LockMode mode) {
  RTDB_PERF_COUNT(kGltGrants);
  State& st = state(obj);
  for (auto& h : st.holders) {
    if (h.client == client) {
      h.mode = stronger(h.mode, mode);
      return;
    }
  }
  st.holders.push_back(GlobalHold{client, mode});
}

LockMode GlobalLockTable::remove_holder(ObjectId obj, ClientId client) {
  State* st = state_if_any(obj);
  if (!st) return LockMode::kNone;
  auto& hs = st->holders;
  auto h = std::find_if(hs.begin(), hs.end(), [&](const GlobalHold& g) {
    return g.client == client;
  });
  if (h == hs.end()) return LockMode::kNone;
  RTDB_PERF_COUNT(kGltReleases);
  const LockMode mode = h->mode;
  hs.erase(h);
  if (st->quiescent()) untrack(obj.value());
  return mode;
}

bool GlobalLockTable::downgrade_holder(ObjectId obj, ClientId client) {
  State* st = state_if_any(obj);
  if (!st) return false;
  for (auto& h : st->holders) {
    if (h.client == client && h.mode == LockMode::kExclusive) {
      h.mode = LockMode::kShared;
      return true;
    }
  }
  return false;
}

std::vector<ObjectId> GlobalLockTable::objects_held_by(ClientId client) const {
  std::vector<ObjectId> out;
  for (const std::uint32_t obj : tracked_) {
    for (const auto& h : tracked_state(obj).holders) {
      if (h.client == client) out.push_back(ObjectId{obj});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t GlobalLockTable::lock_count(ClientId client) const {
  std::size_t n = 0;
  for (const std::uint32_t obj : tracked_) {
    for (const auto& h : tracked_state(obj).holders) {
      if (h.client == client) ++n;
    }
  }
  return n;
}

const ForwardList* GlobalLockTable::queue_if_any(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st ? &st->queue : nullptr;
}

ForwardList* GlobalLockTable::queue_if_any(ObjectId obj) {
  State* st = state_if_any(obj);
  return st ? &st->queue : nullptr;
}

std::vector<std::pair<ObjectId, TxnId>> GlobalLockTable::entries_of_client(
    ClientId client) const {
  std::vector<std::pair<ObjectId, TxnId>> out;
  for (const std::uint32_t obj : tracked_) {
    for (const auto& e : tracked_state(obj).queue.entries()) {
      if (e.client == client) out.emplace_back(ObjectId{obj}, e.txn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GlobalLockTable::mark_recall_sent(ObjectId obj, ClientId client) {
  auto& recalls = state(obj).recalls;
  if (std::find(recalls.begin(), recalls.end(), client) == recalls.end()) {
    recalls.push_back(client);
  }
}

bool GlobalLockTable::recall_pending(ObjectId obj, ClientId client) const {
  const State* st = state_if_any(obj);
  return st && std::find(st->recalls.begin(), st->recalls.end(), client) !=
                   st->recalls.end();
}

void GlobalLockTable::clear_recall(ObjectId obj, ClientId client) {
  State* st = state_if_any(obj);
  if (!st) return;
  auto it = std::find(st->recalls.begin(), st->recalls.end(), client);
  if (it != st->recalls.end()) st->recalls.erase(it);
  if (st->quiescent()) untrack(obj.value());
}

std::size_t GlobalLockTable::recalls_outstanding(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st ? st->recalls.size() : 0;
}

void GlobalLockTable::set_circulating(ObjectId obj, ClientId last_client) {
  State& st = state(obj);
  st.circulating = true;
  st.circulating_last = last_client;
}

void GlobalLockTable::clear_circulating(ObjectId obj) {
  State* st = state_if_any(obj);
  if (!st) return;
  st->circulating = false;
  st->circulating_last = kInvalidClient;
  if (st->quiescent()) untrack(obj.value());
}

bool GlobalLockTable::is_circulating(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st && st->circulating;
}

SiteId GlobalLockTable::location_of(ObjectId obj) const {
  RTDB_PERF_COUNT(kGltLocationQueries);
  const State* st = state_if_any(obj);
  if (!st) return kServerSite;
  if (st->circulating && st->circulating_last != kInvalidClient) {
    return site_of(st->circulating_last);
  }
  for (const auto& h : st->holders) {
    if (h.mode == LockMode::kExclusive) return site_of(h.client);
  }
  if (!st->holders.empty()) return site_of(st->holders.front().client);
  return kServerSite;
}

std::size_t GlobalLockTable::conflict_count_at(
    const std::vector<std::pair<ObjectId, LockMode>>& needs,
    ClientId client) const {
  RTDB_PERF_TIMER(kGltQuery);
  RTDB_PERF_ALLOC_SCOPE(kLock);
  std::size_t conflicts = 0;
  for (const auto& [obj, mode] : needs) {
    if (has_conflict(obj, mode, client)) ++conflicts;
  }
  return conflicts;
}

void GlobalLockTable::drop_if_quiescent(ObjectId obj) {
  const State* st = state_if_any(obj);
  if (st && st->quiescent()) untrack(obj.value());
}

void GlobalLockTable::compact() {
  for (std::size_t i = tracked_.size(); i-- > 0;) {
    const std::uint32_t obj = tracked_[i];
    if (tracked_state(obj).quiescent()) untrack(obj);
  }
}

std::size_t GlobalLockTable::quiescent_tracked() const {
  std::size_t n = 0;
  for (const std::uint32_t obj : tracked_) {
    if (tracked_state(obj).quiescent()) ++n;
  }
  return n;
}

void GlobalLockTable::clear() {
  for (std::size_t i = tracked_.size(); i-- > 0;) untrack(tracked_[i]);
}

std::size_t GlobalLockTable::total_queued_entries() const {
  std::size_t total = 0;
  for (const std::uint32_t obj : tracked_) {
    total += tracked_state(obj).queue.size();
  }
  return total;
}

std::size_t GlobalLockTable::circulating_objects() const {
  std::size_t total = 0;
  for (const std::uint32_t obj : tracked_) {
    if (tracked_state(obj).circulating) ++total;
  }
  return total;
}

std::uint64_t GlobalLockTable::total_expired_dropped() const {
  std::uint64_t total = expired_dropped_retired_;
  for (const std::uint32_t obj : tracked_) {
    total += tracked_state(obj).queue.expired_dropped();
  }
  return total;
}

}  // namespace rtdb::lock
