#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/strong_id.hpp"
#include "lock/modes.hpp"
#include "sim/time.hpp"

/// \file forward_list.hpp
/// The lock-grouping protocol's *forward list* (paper §3.4, after Banerjee &
/// Chrysanthis): the server collects all lock requests on one object that
/// arrive within a *collection window* into a deadline-ordered list. The
/// object is shipped to the first client together with the list; each client
/// forwards the object to the next entry when its transaction commits, and
/// the last client returns it to the server — 2n+1 messages instead of the
/// 3n..4n of callback 2PL. Entries whose transaction deadline has passed
/// are skipped ("the deadline information ... is used to ignore transactions
/// that have missed their deadlines").

namespace rtdb::lock {

/// One queued request travelling with the object.
///
/// `priority` is the queue's sort key: the requesting transaction's deadline
/// under the paper's real-time object-request scheduling (§3.3), or the
/// request's arrival time when the basic FCFS policy is configured.
/// `expires` is always the transaction's firm deadline — entries past it are
/// not worth serving.
struct ForwardEntry {
  ClientId client = kInvalidClient;
  TxnId txn = kInvalidTxn;
  LockMode mode = LockMode::kShared;
  sim::SimTime priority = sim::kTimeInfinity;
  sim::SimTime expires = sim::kTimeInfinity;
  /// The requester already caches the object's data (lock upgrade): the
  /// eventual grant needs no 2 KB payload.
  bool has_copy = false;
};

/// Priority-ordered request list for a single object.
class ForwardList {
 public:
  /// Inserts in priority order (ties keep arrival order — the earlier
  /// requester stays ahead).
  void add(const ForwardEntry& entry);

  /// Pops the next entry still worth serving at time `now`; entries whose
  /// expiry already passed are dropped into `skipped` (may be nullptr).
  /// Returns nullopt when the list empties.
  std::optional<ForwardEntry> pop_next(
      sim::SimTime now, std::vector<ForwardEntry>* skipped = nullptr);

  /// The next serviceable entry at `now` without removing it (expired
  /// entries ahead of it are dropped into `skipped`).
  const ForwardEntry* peek_next(sim::SimTime now,
                                std::vector<ForwardEntry>* skipped = nullptr);

  /// Removes every entry belonging to `txn` (request withdrawn). Returns
  /// how many were removed.
  std::size_t remove_txn(TxnId txn);

  /// The client that will hold the object after the whole list is served —
  /// what the server reports as the object's location while it circulates
  /// ("the server ... reports the last client in the list as the object's
  /// location").
  [[nodiscard]] std::optional<ClientId> last_client() const;

  /// The run of leading kShared entries (they may read in parallel when the
  /// configuration allows copy fan-out).
  [[nodiscard]] std::vector<ForwardEntry> leading_shared_run() const;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::span<const ForwardEntry> entries() const {
    return {entries_.data(), entries_.size()};
  }

  /// Cumulative count of expired entries dropped by pop_next/peek_next over
  /// this list's lifetime (telemetry; survives clear()).
  [[nodiscard]] std::uint64_t expired_dropped() const {
    return expired_dropped_;
  }

  void clear() { entries_.clear(); }

  /// Full reset for slot recycling: clears entries AND the lifetime expiry
  /// counter (the owner has already accumulated it), keeping capacity.
  void reset() {
    entries_.clear();
    expired_dropped_ = 0;
  }

  /// Invariant audit: priorities non-decreasing (deadline-ordered service),
  /// every entry names a real requester with a real lock mode. Aborts on
  /// violation.
  void validate_invariants() const;

 private:
  std::vector<ForwardEntry> entries_;
  std::uint64_t expired_dropped_ = 0;
};

/// Paper §3.4 message-count formulas, used by tests and the Fig 1/2 bench.
/// Standard 2PL without inter-transaction caching: 3n messages for n locks;
/// with caching and individual callbacks it can reach 4n.
constexpr std::uint64_t messages_standard_2pl(std::uint64_t n,
                                              bool with_callbacks) {
  return with_callbacks ? 4 * n : 3 * n;
}

/// Lock grouping: 2n+1 messages for n grouped requests on one object.
constexpr std::uint64_t messages_lock_grouping(std::uint64_t n) {
  return 2 * n + 1;
}

}  // namespace rtdb::lock
