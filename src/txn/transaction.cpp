#include "txn/transaction.hpp"

#include <algorithm>

#include "common/perf.hpp"

namespace rtdb::txn {

std::string_view to_string(TxnState s) {
  switch (s) {
    case TxnState::kPending: return "pending";
    case TxnState::kAcquiring: return "acquiring";
    case TxnState::kReady: return "ready";
    case TxnState::kExecuting: return "executing";
    case TxnState::kCommitted: return "committed";
    case TxnState::kMissed: return "missed";
    case TxnState::kAborted: return "aborted";
  }
  return "?";
}

std::vector<std::pair<ObjectId, lock::LockMode>> Transaction::lock_needs()
    const {
  RTDB_PERF_ALLOC_SCOPE(kTxn);
  // Sort-and-coalesce in the output vector itself: same object-ordered,
  // stronger-mode-merged result the former std::map produced, without a
  // tree-node allocation per operation (this runs once per admission and
  // showed up at ~10% of wall in a throughput profile).
  std::vector<std::pair<ObjectId, lock::LockMode>> needs;
  needs.reserve(ops.size());
  for (const auto& op : ops) needs.emplace_back(op.object, op.mode());
  // Plain sort, not stable_sort (which heap-allocates a merge buffer):
  // ties are folded with stronger(), a commutative max, so the relative
  // order of equal keys cannot affect the result.
  std::sort(needs.begin(), needs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t w = 0;
  for (std::size_t r = 0; r < needs.size(); ++r) {
    if (w > 0 && needs[w - 1].first == needs[r].first) {
      needs[w - 1].second = lock::stronger(needs[w - 1].second,
                                           needs[r].second);
    } else {
      needs[w++] = needs[r];
    }
  }
  needs.resize(w);
  return needs;
}

}  // namespace rtdb::txn
