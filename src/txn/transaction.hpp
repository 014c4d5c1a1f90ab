#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/strong_id.hpp"
#include "lock/modes.hpp"
#include "sim/time.hpp"

/// \file transaction.hpp
/// The unit of work: a real-time transaction with a firm deadline. A
/// transaction "completes successfully only if it finishes its execution
/// within a pre-specified deadline"; transactions that miss are worthless
/// (and the schedulers drop them rather than waste resources — paper §2).

namespace rtdb::txn {

/// One object access. Queries take SL, updates take EL.
struct Operation {
  ObjectId object{};
  bool is_update = false;

  [[nodiscard]] lock::LockMode mode() const {
    return is_update ? lock::LockMode::kExclusive : lock::LockMode::kShared;
  }

  friend bool operator==(const Operation&, const Operation&) = default;
};

/// Lifecycle of a transaction in any of the three system configurations.
enum class TxnState : std::uint8_t {
  kPending,    ///< created, not yet admitted anywhere
  kAcquiring,  ///< collecting objects/locks
  kReady,      ///< all locks held, waiting for the executor
  kExecuting,  ///< occupying an executor slot
  kCommitted,  ///< finished before its deadline
  kMissed,     ///< dropped: deadline passed before completion
  kAborted,    ///< refused/aborted (deadlock admission, failed sub-task)
};

std::string_view to_string(TxnState s);

/// True for states a transaction can still leave.
constexpr bool is_live(TxnState s) {
  return s != TxnState::kCommitted && s != TxnState::kMissed &&
         s != TxnState::kAborted;
}

/// A real-time transaction.
///
/// Plain data: behaviour (acquisition, execution, shipping) lives in the
/// system configurations in rtdb::core; heuristics read these fields.
struct Transaction {
  TxnId id = kInvalidTxn;
  SiteId origin = kInvalidSite;     ///< client where the user submitted it
  sim::SimTime arrival{};           ///< submission instant
  sim::SimTime deadline = sim::kTimeInfinity;  ///< absolute firm deadline
  sim::Duration length{};           ///< pure execution (processing) time
  std::vector<Operation> ops;       ///< object accesses (10 on average)
  bool decomposable = false;        ///< may be split into sub-tasks (10 %)

  TxnState state = TxnState::kPending;

  /// True if any access is an update (the txn needs at least one EL).
  [[nodiscard]] bool is_update() const {
    for (const auto& op : ops) {
      if (op.is_update) return true;
    }
    return false;
  }

  /// Deadline already passed at `now`?
  [[nodiscard]] bool missed(sim::SimTime now) const { return now > deadline; }

  /// Remaining slack at `now` (negative once missed).
  [[nodiscard]] sim::Duration slack(sim::SimTime now) const {
    return deadline - now;
  }

  /// (object, mode) pairs needed, deduplicated with the stronger mode kept.
  [[nodiscard]] std::vector<std::pair<ObjectId, lock::LockMode>> lock_needs()
      const;
};

}  // namespace rtdb::txn
