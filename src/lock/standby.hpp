#pragma once

#include <cstdint>
#include <vector>

#include "common/strong_id.hpp"
#include "lock/modes.hpp"

/// \file standby.hpp
/// Warm-standby replica of the server's global lock table. The primary
/// streams every holder/circulation mutation here (a deterministic,
/// order-preserving log applied immediately); on a server crash with
/// FaultPlan::warm_standby armed, the standby is promoted: the new
/// incarnation rebuilds its GlobalLockTable from the replica's sorted
/// snapshot instead of waiting out a grace-window rebuild. Modelled after
/// the replicated lock-server exemplars (LogCabin/Raft-backed lock tables):
/// we keep the applied state machine, not the log itself — the simulator's
/// in-order delivery stands in for the consensus layer.
///
/// The replica is deliberately *not* wired into GlobalLockTable: the GLT's
/// grant/release path is a proven allocation-free hot region, and the
/// mirror belongs to the (chaos-only) server node layer that owns the
/// protocol. Iteration order never leaks: snapshots are sorted.

namespace rtdb::lock {

/// Mirror of the primary's client-level lock state.
class StandbyReplica {
 public:
  /// One mirrored hold, as handed to the promoted incarnation.
  struct Hold {
    ObjectId object{};
    ClientId client = kInvalidClient;
    LockMode mode = LockMode::kNone;
  };

  /// One mirrored circulating forward-list tail.
  struct Circulation {
    ObjectId object{};
    ClientId last_client = kInvalidClient;
  };

  // --- mutation stream (called by the primary on every GLT change) --------
  void on_add_holder(ObjectId obj, ClientId client, LockMode mode);
  void on_remove_holder(ObjectId obj, ClientId client);
  void on_downgrade(ObjectId obj, ClientId client);
  void on_set_circulating(ObjectId obj, ClientId last_client);
  void on_clear_circulating(ObjectId obj);

  /// Applied mutation count (FaultStats::standby_mutations feed).
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }

  /// All mirrored holds in (object, client) order — the promoted server
  /// rebuilds its lock table by replaying these.
  [[nodiscard]] std::vector<Hold> snapshot_holds() const;

  /// All mirrored circulating objects in object order.
  [[nodiscard]] std::vector<Circulation> snapshot_circulating() const;

 private:
  struct Slot {
    std::vector<Hold> holders;  ///< a handful per object
    bool circulating = false;
    ClientId circulating_last = kInvalidClient;
  };

  Slot& slot(ObjectId obj);

  std::vector<Slot> slots_;  ///< directly indexed by ObjectId
  std::uint64_t mutations_ = 0;
};

}  // namespace rtdb::lock
