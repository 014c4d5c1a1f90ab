#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/inline_vec.hpp"
#include "common/perf.hpp"
#include "common/strong_id.hpp"
#include "lock/forward_list.hpp"
#include "lock/modes.hpp"
#include "sim/stats.hpp"

/// \file global_lock_table.hpp
/// The server's global lock table: which *client* caches which lock on
/// which object ("since several clients can cache the same database objects,
/// the server maintains a global lock table to serialize updates to cached
/// data"). Pure bookkeeping + queries; the callback/grant *messaging* is
/// driven by the server node in rtdb::core, which makes this state machine
/// directly unit-testable.
///
/// Holders are typed ClientId throughout — the server itself never holds a
/// client-level lock, and the strong id makes handing the table a raw site
/// (or a transposed argument pair) a compile error. Only location_of() widens
/// back to SiteId, because "at the server" is a legitimate object location.
///
/// Each object also carries a deadline-ordered wait queue, which in the LS
/// configuration doubles as the next forward list (lock grouping, §3.4), a
/// set of outstanding recalls, and — while a shipped forward list circulates
/// among clients — the identity of the list's final client, which the server
/// reports as the object's location.
///
/// Storage: object ids are dense (the workload numbers the database
/// 0..db_size-1), so a directly-indexed 4-byte slot index maps each object
/// to its state — no hashing anywhere on the grant/release path. The states
/// themselves live in a pool sized by the objects *in play*, not by the
/// database: retiring a quiescent object returns its state (capacity kept)
/// to a free list for the next object to reuse. Pool states never move, so
/// a reference from queue() stays valid until its object's state is
/// retired — and no longer: the slot may then serve another object (in
/// `RTDB_SANITIZE=address` builds a free slot is poisoned, so such a stale
/// reference fails loudly). A side list of *tracked* (non-retired) objects
/// serves iteration; its order never feeds an ordered decision — every
/// consumer aggregates, audits, or sorts. Holders and recalls live inline
/// in the state (two holders, four recalls before a heap block), so a
/// grant or release touches one state and nothing else. There is no
/// per-client reverse index: the only question it answered ("what does
/// this client hold?") is asked when a client is declared dead, and
/// objects_held_by() answers it by scanning the tracked states.

namespace rtdb::lock {

/// One client-level lock.
struct GlobalHold {
  ClientId client = kInvalidClient;
  LockMode mode = LockMode::kNone;
};

/// Server-side lock/queue/recall state for the whole database.
class GlobalLockTable {
 public:
  // --- holder bookkeeping ------------------------------------------------

  /// Mode `client` holds on `obj` (kNone if none).
  [[nodiscard]] LockMode holder_mode(ObjectId obj, ClientId client) const;

  /// All client holds on `obj`, in grant order. The view dangles once a
  /// hold on `obj` is added or removed.
  [[nodiscard]] std::span<const GlobalHold> holders(ObjectId obj) const;

  /// Clients whose hold on `obj` conflicts with `mode` (excluding the
  /// requester itself).
  [[nodiscard]] std::vector<ClientId> conflicting_holders(
      ObjectId obj, LockMode mode, ClientId requester) const;

  /// Calls fn(client) for each holder conflicting_holders() would list, in
  /// the same order, without building the vector (one conflict scan).
  template <typename Fn>
  void for_each_conflicting(ObjectId obj, LockMode mode, ClientId requester,
                            Fn&& fn) const {
    RTDB_PERF_COUNT(kGltConflictScans);
    const State* st = state_if_any(obj);
    if (!st) return;
    for (const GlobalHold& h : st->holders) {
      if (h.client != requester && !compatible(h.mode, mode)) fn(h.client);
    }
  }

  /// True if any other holder's mode conflicts with `mode` on `obj`.
  /// Allocation-free existence test — use this instead of
  /// `!conflicting_holders(...).empty()` on query paths.
  [[nodiscard]] bool has_conflict(ObjectId obj, LockMode mode,
                                  ClientId requester) const;

  /// True if granting (client, mode) needs no callback: every other holder
  /// is compatible with `mode`.
  [[nodiscard]] bool can_grant(ObjectId obj, ClientId client,
                               LockMode mode) const;

  /// Records a grant (new hold or upgrade to the stronger mode).
  void add_holder(ObjectId obj, ClientId client, LockMode mode);

  /// Removes a client's hold. Returns the mode it held (kNone if absent).
  LockMode remove_holder(ObjectId obj, ClientId client);

  /// EL -> SL downgrade (the paper's modified callback: an EL holder asked
  /// to yield to a *shared* request keeps the object with a SL). Returns
  /// false if the client held no EL.
  bool downgrade_holder(ObjectId obj, ClientId client);

  /// Objects a client currently holds locks on, ascending. A scan of every
  /// tracked state: meant for dead-client reclamation, not a hot path.
  [[nodiscard]] std::vector<ObjectId> objects_held_by(ClientId client) const;

  /// Count of locks a client holds (diagnostics; a scan like the above).
  [[nodiscard]] std::size_t lock_count(ClientId client) const;

  // --- wait queue / next forward list ------------------------------------

  /// Deadline-ordered pending requests for `obj` (mutable access: the
  /// server enqueues and harvests entries from it). Creates the object's
  /// state when absent. The reference dangles — it may name another
  /// object's queue — once a remove_holder/clear_recall/clear_circulating/
  /// compact/clear call retires this object's state.
  ForwardList& queue(ObjectId obj) { return state(obj).queue; }
  /// The queue of `obj` if it has a state — never creates one (ask this
  /// first when the object may have nothing queued).
  [[nodiscard]] const ForwardList* queue_if_any(ObjectId obj) const;
  [[nodiscard]] ForwardList* queue_if_any(ObjectId obj);

  /// Calls fn(obj, queue) for every tracked object (audits/diagnostics).
  void for_each_queue(
      const std::function<void(ObjectId, const ForwardList&)>& fn) const {
    for (const std::uint32_t obj : tracked_) {
      fn(ObjectId{obj}, tracked_state(obj).queue);
    }
  }

  /// Every queued (object, txn) request entry belonging to `client`, in a
  /// deterministic (object-then-txn) order — the server's dead-client
  /// reclamation sweeps these out of the wait queues.
  [[nodiscard]] std::vector<std::pair<ObjectId, TxnId>> entries_of_client(
      ClientId client) const;

  // --- recall (callback) bookkeeping --------------------------------------

  void mark_recall_sent(ObjectId obj, ClientId client);
  [[nodiscard]] bool recall_pending(ObjectId obj, ClientId client) const;
  void clear_recall(ObjectId obj, ClientId client);
  [[nodiscard]] std::size_t recalls_outstanding(ObjectId obj) const;

  // --- forward-list circulation (LS) --------------------------------------

  /// Marks the object as travelling along a shipped forward list whose last
  /// entry is `last_client`.
  void set_circulating(ObjectId obj, ClientId last_client);

  /// Clears circulation (the object returned to the server).
  void clear_circulating(ObjectId obj);

  [[nodiscard]] bool is_circulating(ObjectId obj) const;

  // --- location ------------------------------------------------------------

  /// Where a requester should expect the object: the last client of a
  /// circulating forward list, else an exclusive holder, else any shared
  /// holder, else the server.
  [[nodiscard]] SiteId location_of(ObjectId obj) const;

  // --- H2 ------------------------------------------------------------------

  /// The paper's H2 cost: the number of `needs` entries that would sit
  /// behind conflicting locks if the transaction executed at `client` (locks
  /// held by `client` itself never conflict with it).
  [[nodiscard]] std::size_t conflict_count_at(
      const std::vector<std::pair<ObjectId, LockMode>>& needs,
      ClientId client) const;

  /// Drops empty per-object states (call after bursts of releases).
  void compact();

  /// Retires `obj`'s state if it is quiescent — for callers that emptied
  /// its queue through queue() (expired entries dropped by a peek).
  void drop_if_quiescent(ObjectId obj);

  /// Tracked states that are quiescent: what compact() would retire. The
  /// server keeps this at zero (diagnostics/tests).
  [[nodiscard]] std::size_t quiescent_tracked() const;

  /// Wipes the whole table — the server crashed and its volatile lock state
  /// is gone. Capacity is kept (slots are recycled, not freed) and the
  /// cumulative expired-drop counter survives, so post-restart telemetry
  /// stays monotone.
  void clear();

  [[nodiscard]] std::size_t tracked_objects() const {
    return tracked_.size();
  }

  /// States ever allocated: the high-water mark of concurrently tracked
  /// objects (diagnostics/tests).
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

  // --- telemetry gauges -----------------------------------------------------

  /// Request entries queued across every object (sampler gauge).
  [[nodiscard]] std::size_t total_queued_entries() const;

  /// Objects currently out on a circulating forward list (sampler gauge).
  [[nodiscard]] std::size_t circulating_objects() const;

  /// Cumulative expired entries dropped by every queue (sampler counter).
  [[nodiscard]] std::uint64_t total_expired_dropped() const;

  /// Invariant audit: per-object holder sets have distinct clients with real
  /// modes and are pairwise compatible (the lock-mode compatibility matrix
  /// the whole callback scheme rests on); wait queues are priority-ordered;
  /// the tracked list names exactly the non-retired objects; the slot
  /// index, the pool and its free list agree — no two objects share a
  /// state, and every free state is untracked and quiescent. Aborts on
  /// violation.
  void validate_invariants() const;

  GlobalLockTable() = default;
  /// Not copyable: free pool slots are poisoned under AddressSanitizer.
  GlobalLockTable(const GlobalLockTable&) = delete;
  GlobalLockTable& operator=(const GlobalLockTable&) = delete;
  ~GlobalLockTable();

 private:
  struct State {
    common::InlineVec<GlobalHold, 2> holders;
    ForwardList queue;
    common::InlineVec<ClientId, 4> recalls;  ///< deduplicated
    bool circulating = false;
    ClientId circulating_last = kInvalidClient;
    std::uint32_t tracked_pos = 0;  ///< index into tracked_ while tracked

    [[nodiscard]] bool quiescent() const {
      return holders.empty() && queue.empty() && recalls.empty() &&
             !circulating;
    }
  };

  /// index_ value of an object with no state.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Finds or creates the state for `obj` (the map operator[] idiom); a
  /// new state takes a free pool slot before the pool grows.
  State& state(ObjectId obj);
  [[nodiscard]] const State* state_if_any(ObjectId obj) const;
  [[nodiscard]] State* state_if_any(ObjectId obj);
  /// State of an object on tracked_ (its index_ entry names a slot).
  State& tracked_state(std::uint32_t obj) { return pool_[index_[obj]]; }
  [[nodiscard]] const State& tracked_state(std::uint32_t obj) const {
    return pool_[index_[obj]];
  }
  /// Retires one tracked object: accumulates its expiry counter, resets
  /// the state (capacity kept), returns it to the free list (poisoned) and
  /// swap-removes the object from tracked_.
  void untrack(std::uint32_t obj);

  /// Pool slot of each object's state (kNoSlot: none), directly indexed
  /// by ObjectId and grown on first touch.
  std::vector<std::uint32_t> index_;
  /// Every state ever allocated, at stable addresses (a deque never moves
  /// its elements on growth).
  std::deque<State> pool_;
  std::vector<std::uint32_t> free_;     ///< pool slots no object owns
  std::vector<std::uint32_t> tracked_;  ///< object ids with a state

  /// Expired-drop counts of queues whose object state was already retired
  /// (dropped when quiescent) — keeps total_expired_dropped() cumulative.
  std::uint64_t expired_dropped_retired_ = 0;
};

}  // namespace rtdb::lock
