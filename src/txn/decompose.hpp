#pragma once

#include <functional>
#include <vector>

#include "common/strong_id.hpp"
#include "txn/transaction.hpp"

/// \file decompose.hpp
/// Transaction decomposition (paper §3.2): "the disassembly of multiple
/// object requests from a client transaction and the quest to individually
/// fulfill independent object requests" — three phases: request disassembly
/// (here), materialization (sub-tasks run in parallel at the sites caching
/// the data), and answer synthesis (at the originating client).

namespace rtdb::txn {

/// One independent piece of a decomposed transaction, to be materialized at
/// `site`.
struct Subtask {
  TxnId parent = kInvalidTxn;
  std::uint32_t index = 0;          ///< position among siblings
  SiteId site = kInvalidSite;       ///< where it materializes
  std::vector<Operation> ops;       ///< the object requests it fulfils
  sim::Duration length{};           ///< its share of the processing time
  sim::SimTime deadline = sim::kTimeInfinity;  ///< inherited firm deadline
};

/// Request disassembly: groups a transaction's operations by the site that
/// currently holds each object (per `locate`), producing one sub-task per
/// distinct site. Processing time is divided proportionally to each
/// sub-task's share of the operations ("each of the subtasks could be
/// processed in parallel and may take considerably shorter time").
///
/// Returns an empty vector when the transaction is not decomposable or
/// every object lives at one site (nothing to disassemble).
std::vector<Subtask> decompose(const Transaction& txn,
                               const std::function<SiteId(ObjectId)>& locate);

}  // namespace rtdb::txn
