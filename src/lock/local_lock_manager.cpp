#include "lock/local_lock_manager.hpp"

#include <algorithm>
#include <cassert>

#include "common/check.hpp"
#include "common/perf.hpp"

namespace rtdb::lock {

void LocalLockManager::validate_invariants() const {
  graph_.validate_invariants();
  objects_.validate_invariants();
  std::size_t holds_total = 0;
  objects_.for_each([&](ObjectId obj, const ObjectState& st) {
    RTDB_CHECK(!st.holders.empty() || !st.queue.empty(),
               "quiescent obj %u not dropped", obj.value());
    for (std::size_t i = 0; i < st.holders.size(); ++i) {
      const Hold& h = st.holders[i];
      RTDB_CHECK(h.mode != LockMode::kNone, "txn %llu holds kNone on obj %u",
                 static_cast<unsigned long long>(h.txn.value()), obj.value());
      const auto ht = held_by_txn_.find(h.txn);
      RTDB_CHECK(ht != held_by_txn_.end() && ht->second.count(obj) != 0,
                 "hold (txn %llu, obj %u) missing from held index",
                 static_cast<unsigned long long>(h.txn.value()), obj.value());
      for (std::size_t j = i + 1; j < st.holders.size(); ++j) {
        const Hold& o = st.holders[j];
        RTDB_CHECK(o.txn != h.txn, "obj %u has duplicate holder txn %llu",
                   obj.value(),
                   static_cast<unsigned long long>(h.txn.value()));
        RTDB_CHECK(compatible(h.mode, o.mode),
                   "obj %u holders %llu (%s) and %llu (%s) are incompatible",
                   obj.value(),
                   static_cast<unsigned long long>(h.txn.value()),
                   to_string(h.mode).data(),
                   static_cast<unsigned long long>(o.txn.value()),
                   to_string(o.mode).data());
      }
    }
    holds_total += st.holders.size();
    for (std::size_t i = 0; i < st.queue.size(); ++i) {
      const Waiter& w = st.queue[i];
      if (i > 0) {
        RTDB_CHECK(st.queue[i - 1].deadline <= w.deadline,
                   "obj %u wait queue breaks EDF order at %zu", obj.value(),
                   i);
      }
      const auto wt = waiting_on_.find(w.txn);
      RTDB_CHECK(wt != waiting_on_.end() && wt->second.count(obj) != 0,
                 "waiter (txn %llu, obj %u) missing from waiting index",
                 static_cast<unsigned long long>(w.txn.value()), obj.value());
    }
  });
  std::size_t indexed_holds = 0;
  for (const auto& [txn, objs] : held_by_txn_) {
    RTDB_CHECK(!objs.empty(), "empty held bucket for txn %llu",
               static_cast<unsigned long long>(txn.value()));
    for (const ObjectId obj : objs) {
      RTDB_CHECK(held_mode(txn, obj) != LockMode::kNone,
                 "held index names (txn %llu, obj %u) without a hold",
                 static_cast<unsigned long long>(txn.value()), obj.value());
    }
    indexed_holds += objs.size();
  }
  RTDB_CHECK(indexed_holds == holds_total,
             "held index counts %zu holds, table has %zu", indexed_holds,
             holds_total);
  for (const auto& [txn, objs] : waiting_on_) {
    for (const ObjectId obj : objs) {
      const ObjectState* st = objects_.find(obj);
      const bool queued =
          st != nullptr &&
          std::any_of(st->queue.begin(), st->queue.end(),
                      [txn = txn](const Waiter& w) { return w.txn == txn; });
      RTDB_CHECK(queued,
                 "waiting index names (txn %llu, obj %u) without a waiter",
                 static_cast<unsigned long long>(txn.value()), obj.value());
    }
  }
}

bool LocalLockManager::grantable(const ObjectState& st, TxnId txn,
                                 LockMode mode) {
  return std::all_of(st.holders.begin(), st.holders.end(),
                     [&](const Hold& h) {
                       return h.txn == txn || compatible(h.mode, mode);
                     });
}

LockMode LocalLockManager::held_mode(TxnId txn, ObjectId obj) const {
  const ObjectState* st = objects_.find(obj);
  if (st == nullptr) return LockMode::kNone;
  for (const auto& h : st->holders) {
    if (h.txn == txn) return h.mode;
  }
  return LockMode::kNone;
}

std::vector<TxnId> LocalLockManager::holders(ObjectId obj) const {
  std::vector<TxnId> result;
  const ObjectState* st = objects_.find(obj);
  if (st == nullptr) return result;
  result.reserve(st->holders.size());
  for (const auto& h : st->holders) result.push_back(h.txn);
  return result;
}

std::vector<TxnId> LocalLockManager::conflicting_holders(ObjectId obj,
                                                         LockMode mode,
                                                         TxnId txn) const {
  std::vector<TxnId> result;
  const ObjectState* st = objects_.find(obj);
  if (st == nullptr) return result;
  for (const auto& h : st->holders) {
    if (h.txn != txn && !compatible(h.mode, mode)) result.push_back(h.txn);
  }
  return result;
}

std::size_t LocalLockManager::waiting_count(ObjectId obj) const {
  const ObjectState* st = objects_.find(obj);
  return st == nullptr ? 0 : st->queue.size();
}

std::vector<ObjectId> LocalLockManager::objects_held(TxnId txn) const {
  std::vector<ObjectId> out;
  objects_held(txn, out);
  return out;
}

void LocalLockManager::objects_held(TxnId txn,
                                    std::vector<ObjectId>& out) const {
  out.clear();
  auto it = held_by_txn_.find(txn);
  if (it != held_by_txn_.end()) out.assign(it->second.begin(), it->second.end());
}

void LocalLockManager::blockers_into(const ObjectState& st, TxnId txn,
                                     LockMode mode, sim::SimTime deadline,
                                     std::vector<TxnId>& blockers) const {
  blockers.clear();
  for (const auto& h : st.holders) {
    if (h.txn != txn && !compatible(h.mode, mode)) blockers.push_back(h.txn);
  }
  // Waiters that will sit ahead of this request in EDF order and whose mode
  // conflicts also block it.
  for (const auto& w : st.queue) {
    if (w.deadline > deadline) break;  // insertion point reached
    if (w.txn != txn && !compatible(w.mode, mode)) blockers.push_back(w.txn);
  }
}

void LocalLockManager::grant(ObjectState& st, TxnId txn, LockMode mode) {
  for (auto& h : st.holders) {
    if (h.txn == txn) {
      h.mode = stronger(h.mode, mode);  // upgrade in place
      grants_.inc();
      return;
    }
  }
  st.holders.push_back(Hold{txn, mode});
  grants_.inc();
}

LocalLockManager::Outcome LocalLockManager::acquire(TxnId txn, ObjectId obj,
                                                    LockMode mode,
                                                    sim::SimTime deadline,
                                                    GrantFn on_grant) {
  assert(mode != LockMode::kNone);
  RTDB_PERF_ALLOC_SCOPE(kLock);
  auto& st = objects_.get_or_insert(obj);

  // A covering hold means `txn` is a holder, so the state is not idle.
  for (const Hold& h : st.holders) {
    if (h.txn == txn && covers(h.mode, mode)) return Outcome::kGranted;
  }

  // Immediate grant only when EDF order is respected: compatible with all
  // holders AND no conflicting request is already queued ahead.
  blockers_into(st, txn, mode, deadline, scratch_blockers_);
  const auto& blockers = scratch_blockers_;
  if (blockers.empty() && grantable(st, txn, mode)) {
    grant(st, txn, mode);
    held_by_txn_[txn].insert(obj);
    return Outcome::kGranted;
  }

  // Admission test: refuse a request that would close a wait-for cycle.
  if (graph_.would_deadlock(txn, blockers)) {
    deadlocks_.inc();
    drop_object_if_quiescent(obj);
    return Outcome::kDeadlock;
  }

  Waiter waiter{txn, mode, deadline, std::move(on_grant), {}};
  auto pos = std::upper_bound(st.queue.begin(), st.queue.end(), deadline,
                              [](sim::SimTime d, const Waiter& w) {
                                return d < w.deadline;
                              });
  st.queue.insert(pos, std::move(waiter));
  waiting_on_[txn].insert(obj);
  waits_.inc();
  refresh_wait_edges(obj);
  return Outcome::kQueued;
}


void LocalLockManager::unindex_wait_if_none(TxnId txn, ObjectId obj) {
  // A txn can have several queued requests on one object (e.g. a shared
  // request plus an upgrade); the index entry may only go when the last
  // one leaves the queue.
  if (const ObjectState* st = objects_.find(obj)) {
    for (const auto& w : st->queue) {
      if (w.txn == txn) return;
    }
  }
  auto wt = waiting_on_.find(txn);
  if (wt != waiting_on_.end()) {
    wt->second.erase(obj);
    if (wt->second.empty()) waiting_on_.erase(wt);
  }
}

void LocalLockManager::refresh_wait_edges(ObjectId obj) {
  // EDF insert-ahead can close a wait-for cycle after admission; when a
  // waiter's refreshed edges do so, that waiter is aborted as the victim
  // (its callback fires with granted=false) and the refresh restarts.
  for (bool changed = true; changed;) {
    changed = false;
    ObjectState* stp = objects_.find(obj);
    if (stp == nullptr) return;
    auto& st = *stp;
    for (auto qit = st.queue.begin(); qit != st.queue.end(); ++qit) {
      auto& w = *qit;
      // Computed into a reused scratch buffer: edges are unchanged for the
      // vast majority of refreshes, and the common path must not allocate.
      auto& fresh = scratch_blockers_;
      blockers_into(st, w.txn, w.mode, w.deadline, fresh);
      // blockers_into stops at the first strictly-later deadline, which
      // includes the waiter itself; drop self entries.
      fresh.erase(std::remove(fresh.begin(), fresh.end(), w.txn),
                  fresh.end());
      std::sort(fresh.begin(), fresh.end());
      fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
      if (fresh == w.edges) continue;
      for (auto h : w.edges) graph_.remove_edge(w.txn, h);
      graph_.add_edges(w.txn, fresh);
      w.edges = fresh;  // copy-assign: reuses the waiter's existing capacity
      if (!graph_.has_cycle()) continue;

      // This waiter's new edges closed a cycle: abort it.
      deadlocks_.inc();
      for (auto h : w.edges) graph_.remove_edge(w.txn, h);
      GrantFn cb = std::move(w.on_grant);
      const TxnId victim = w.txn;
      st.queue.erase(qit);
      unindex_wait_if_none(victim, obj);
      if (cb) cb(false);
      changed = true;
      break;  // the queue (and possibly the whole table) changed: restart
    }
  }
  drop_object_if_quiescent(obj);
}

void LocalLockManager::pump(ObjectId obj) {
  // Grants are performed one front-waiter at a time; callbacks run after
  // the state mutation so reentrant acquire/release calls observe a
  // consistent table.
  for (;;) {
    ObjectState* stp = objects_.find(obj);
    if (stp == nullptr || stp->queue.empty()) break;
    auto& st = *stp;
    Waiter& front = st.queue.front();
    if (!grantable(st, front.txn, front.mode)) break;
    // An upgrade blocked by other SL holders is handled by grantable();
    // reaching here means it can proceed.
    Waiter granted = std::move(front);
    st.queue.erase(st.queue.begin());
    for (auto h : granted.edges) graph_.remove_edge(granted.txn, h);
    grant(st, granted.txn, granted.mode);
    held_by_txn_[granted.txn].insert(obj);
    unindex_wait_if_none(granted.txn, obj);
    refresh_wait_edges(obj);
    if (granted.on_grant) granted.on_grant(true);
  }
  refresh_wait_edges(obj);
  drop_object_if_quiescent(obj);
}

void LocalLockManager::release(TxnId txn, ObjectId obj) {
  RTDB_PERF_ALLOC_SCOPE(kLock);
  const std::size_t slot = objects_.slot_of(obj);
  if (slot == decltype(objects_)::kNpos) return;
  auto& st = objects_.value_at(slot);
  auto h = std::find_if(st.holders.begin(), st.holders.end(),
                        [&](const Hold& hold) { return hold.txn == txn; });
  if (h == st.holders.end()) return;
  st.holders.erase(h);
  auto ht = held_by_txn_.find(txn);
  if (ht != held_by_txn_.end()) {
    ht->second.erase(obj);
    if (ht->second.empty()) held_by_txn_.erase(ht);
  }
  if (st.queue.empty()) {
    // No waiter to grant or re-edge: pump() would only drop an idle state.
    if (st.holders.empty()) objects_.erase_at(slot);
    return;
  }
  pump(obj);
}

void LocalLockManager::cancel_waits(TxnId txn) {
  RTDB_PERF_ALLOC_SCOPE(kLock);
  auto wt = waiting_on_.find(txn);
  if (wt == waiting_on_.end()) return;
  // Copy first: the set is erased before the pumps run.
  std::vector<ObjectId> objs = std::move(scratch_objs_);
  objs.assign(wt->second.begin(), wt->second.end());
  waiting_on_.erase(wt);
  for (ObjectId obj : objs) {
    ObjectState* stp = objects_.find(obj);
    if (stp == nullptr) continue;
    auto& q = stp->queue;
    for (auto qit = q.begin(); qit != q.end();) {
      if (qit->txn == txn) {
        for (auto h : qit->edges) graph_.remove_edge(txn, h);
        qit = q.erase(qit);
      } else {
        ++qit;
      }
    }
    // Removing a conflicting waiter from the middle can unblock the front.
    pump(obj);
  }
  objs.clear();
  scratch_objs_ = std::move(objs);
}

void LocalLockManager::release_all(TxnId txn) {
  RTDB_PERF_ALLOC_SCOPE(kLock);
  cancel_waits(txn);
  auto ht = held_by_txn_.find(txn);
  if (ht == held_by_txn_.end()) return;
  // Copy first: release() mutates the set.
  std::vector<ObjectId> objs = std::move(scratch_objs_);
  objs.assign(ht->second.begin(), ht->second.end());
  for (ObjectId obj : objs) release(txn, obj);
  objs.clear();
  scratch_objs_ = std::move(objs);
  graph_.remove_node(txn);
}

void LocalLockManager::drop_object_if_quiescent(ObjectId obj) {
  const ObjectState* st = objects_.find(obj);
  if (st != nullptr && st->holders.empty() && st->queue.empty()) {
    objects_.erase(obj);
  }
}

}  // namespace rtdb::lock
