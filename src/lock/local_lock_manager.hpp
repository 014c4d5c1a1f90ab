#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/inline_vec.hpp"
#include "common/small_function.hpp"
#include "common/strong_id.hpp"
#include "lock/modes.hpp"
#include "lock/wait_for_graph.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

/// \file local_lock_manager.hpp
/// Transaction-level strict-2PL lock manager. Each client runs one ("Clients
/// also have their own local lock managers to ensure that concurrent
/// transactions at the client access the data in a serialized manner"), and
/// the centralized server runs one as its global schedule's lock manager.
///
/// Waiting requests are kept in Earliest-Deadline-First order (the paper's
/// scheduling policy everywhere). Requests that would close a wait-for-graph
/// cycle are refused at admission, mirroring the paper's server rule. EDF
/// has a hazard FCFS queues lack: a later, more urgent request inserting
/// *ahead* of a queued waiter can close a cycle after admission. Such late
/// cycles are detected when wait edges are refreshed and resolved by
/// aborting the waiter whose updated edges closed the cycle — its grant
/// callback fires with granted=false.

namespace rtdb::lock {

/// A strict-2PL lock table over transactions at one site.
class LocalLockManager {
 public:
  /// Result of an acquire call.
  enum class Outcome {
    kGranted,   ///< lock held; the grant callback was NOT called
    kQueued,    ///< waiting; the grant callback fires on grant
    kDeadlock,  ///< refused: enqueueing would deadlock; nothing changed
  };

  /// Invoked when a queued request resolves: granted=true on grant,
  /// granted=false when the waiter was aborted as a late-deadlock victim.
  using GrantFn = common::SmallFunction<void(bool granted)>;

  /// Requests `mode` on `obj` for `txn` (deadline used for queue order).
  /// SL->EL upgrades are supported and take priority appropriate to their
  /// deadline. Re-requesting a covered mode returns kGranted immediately.
  Outcome acquire(TxnId txn, ObjectId obj, LockMode mode,
                  sim::SimTime deadline, GrantFn on_grant);

  /// Releases one lock; grants any newly unblocked waiters (their GrantFn
  /// callbacks run before this returns).
  void release(TxnId txn, ObjectId obj);

  /// Releases everything `txn` holds and cancels its waiting requests.
  void release_all(TxnId txn);

  /// Cancels `txn`'s waiting (not yet granted) requests only — used when a
  /// queued transaction misses its deadline. Granted locks are untouched.
  void cancel_waits(TxnId txn);

  /// Mode `txn` currently holds on `obj` (kNone if none).
  [[nodiscard]] LockMode held_mode(TxnId txn, ObjectId obj) const;

  /// Transactions currently holding `obj`.
  [[nodiscard]] std::vector<TxnId> holders(ObjectId obj) const;

  /// Holders of `obj` whose lock conflicts with `mode` (excluding `txn`).
  [[nodiscard]] std::vector<TxnId> conflicting_holders(ObjectId obj,
                                                       LockMode mode,
                                                       TxnId txn) const;

  /// Waiting requests on `obj`.
  [[nodiscard]] std::size_t waiting_count(ObjectId obj) const;

  /// All locks held by `txn`.
  [[nodiscard]] std::vector<ObjectId> objects_held(TxnId txn) const;
  /// The same list written into `out` (cleared first), so a caller on the
  /// commit path can reuse one buffer.
  void objects_held(TxnId txn, std::vector<ObjectId>& out) const;

  /// True when no locks are held and no requests wait (quiescent).
  [[nodiscard]] bool idle() const { return objects_.empty(); }

  // --- run metrics -------------------------------------------------------
  [[nodiscard]] std::uint64_t grants() const { return grants_.value(); }
  [[nodiscard]] std::uint64_t waits() const { return waits_.value(); }
  [[nodiscard]] std::uint64_t deadlocks_refused() const {
    return deadlocks_.value();
  }

  /// Diagnostic access to the wait-for graph (nodes are transactions).
  [[nodiscard]] const WaitForGraph<TxnId>& wait_graph() const {
    return graph_;
  }

  /// Invariant audit: strict-2PL holder compatibility per object, EDF order
  /// of every wait queue, held/waiting indexes mirroring the table, and a
  /// consistent wait-for graph. Aborts on violation.
  void validate_invariants() const;

 private:
  struct Hold {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    sim::SimTime deadline;
    GrantFn on_grant;
    std::vector<TxnId> edges;  ///< blockers currently charged in the graph
  };
  struct ObjectState {
    /// Nearly always one holder: it lives in the state, not a heap block.
    common::InlineVec<Hold, 1> holders;
    // EDF order. A vector, not a deque: queues are short (front-erase is a
    // small memmove) and a default-constructed deque heap-allocates its
    // spine, which would tax every slot of the flat table's rehash.
    std::vector<Waiter> queue;
  };

  /// Could (txn, mode) be granted right now given current holders?
  static bool grantable(const ObjectState& st, TxnId txn, LockMode mode);

  /// Grants front-of-queue requests while possible; fires callbacks.
  void pump(ObjectId obj);

  /// Recomputes wait-for edges for every waiter of `obj`.
  void refresh_wait_edges(ObjectId obj);

  /// Blockers of a request: conflicting holders plus conflicting waiters
  /// that would sit ahead of it in EDF order. Clears and fills `blockers`
  /// (a caller-owned buffer, so the hot path reuses one allocation).
  void blockers_into(const ObjectState& st, TxnId txn, LockMode mode,
                     sim::SimTime deadline,
                     std::vector<TxnId>& blockers) const;

  void grant(ObjectState& st, TxnId txn, LockMode mode);
  void drop_object_if_quiescent(ObjectId obj);

  /// Drops (txn, obj) from the waiting index only when no queued request
  /// of that txn remains on the object.
  void unindex_wait_if_none(TxnId txn, ObjectId obj);

  /// Per-object lock state in a flat open-addressing table (hot: every
  /// acquire/release probes it). Iteration only feeds the invariant audit,
  /// which is order-independent. The per-txn indexes below deliberately
  /// stay `unordered_*`: release_all/cancel_waits walk them and fire
  /// grant callbacks in that order, and
  /// ClientNode::finish re-checks deferred recalls in objects_held() order,
  /// so swapping or sorting the container would reorder observable
  /// protocol traffic.
  common::FlatMap<ObjectId, ObjectState> objects_;
  std::unordered_map<TxnId, std::unordered_set<ObjectId>> held_by_txn_;
  std::unordered_map<TxnId, std::unordered_set<ObjectId>> waiting_on_;
  WaitForGraph<TxnId> graph_;
  /// Reused by acquire/refresh_wait_edges for blocker computation (the
  /// manager is single-threaded and neither path re-enters before its last
  /// read of the buffer).
  std::vector<TxnId> scratch_blockers_;
  /// release_all/cancel_waits copy the per-txn set here before walking
  /// it (the walk mutates the set). A call moves the buffer out for its
  /// walk and back afterwards, so a nested call (a grant callback
  /// releasing another transaction) gets a fresh vector instead of
  /// clobbering the outer one.
  std::vector<ObjectId> scratch_objs_;
  sim::Counter grants_;
  sim::Counter waits_;
  sim::Counter deadlocks_;
};

}  // namespace rtdb::lock
