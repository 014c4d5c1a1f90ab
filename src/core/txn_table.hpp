#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/strong_id.hpp"
#include "txn/transaction.hpp"

/// \file txn_table.hpp
/// The one per-site transaction table. Every prototype keeps its in-flight
/// transactions (CE server, OCC workstations, CS/LS clients) in a
/// TxnTable<Rec> keyed by transaction id, where Rec is the site's own
/// record type.
///
///  * Records are stored by value in a node-based map: a reference to one
///    record stays valid across the emplace or erase of any other id, so a
///    pipeline step may hold `Rec&` while it admits or retires neighbours.
///  * current() is the guard every stale continuation needs — present,
///    still live, and (for epoch-tagged records) at the attempt the
///    callback was armed for.
///  * ids() is the sweep for anything whose effect depends on visiting
///    order: ascending ids, so no crash sweep ever sees hash order.

namespace rtdb::core {

template <typename Rec>
class TxnTable {
 public:
  /// Inserts a default record for `id` (which must be absent) and returns
  /// it for the caller to fill in.
  Rec& emplace(TxnId id) {
    auto [it, inserted] = map_.try_emplace(id);
    assert(inserted && "TxnTable::emplace of an id already present");
    return it->second;
  }

  [[nodiscard]] Rec* find(TxnId id) {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool contains(TxnId id) const { return map_.count(id) != 0; }

  void erase(TxnId id) { map_.erase(id); }
  void clear() { map_.clear(); }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// The record for `id` only while its transaction is still live.
  [[nodiscard]] Rec* current(TxnId id) {
    Rec* r = find(id);
    return r && txn::is_live(r->t.state) ? r : nullptr;
  }

  /// The record for `id` only while it is live and still at attempt
  /// `epoch` — callbacks armed by an earlier (restarted) attempt get
  /// nullptr.
  [[nodiscard]] Rec* current(TxnId id, std::uint32_t epoch) {
    Rec* r = current(id);
    return r && r->epoch == epoch ? r : nullptr;
  }

  /// Every id in the table, ascending.
  [[nodiscard]] std::vector<TxnId> ids() const {
    std::vector<TxnId> out;
    out.reserve(map_.size());
    for (const auto& entry : map_) out.push_back(entry.first);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Order-insensitive visit (counts) without ids()'s allocation and sort.
  /// Anything whose effect depends on visiting order walks ids() instead.
  template <typename Fn>
  void for_each_unordered(Fn&& fn) const {
    for (const auto& entry : map_) fn(entry.second);
  }

 private:
  std::unordered_map<TxnId, Rec> map_;
};

}  // namespace rtdb::core
