#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/poison.hpp"
#include "common/strong_id.hpp"
#include "txn/transaction.hpp"

/// \file txn_table.hpp
/// The one per-site transaction table. Every prototype keeps its in-flight
/// transactions (CE server, OCC workstations, CS/LS clients) in a
/// TxnTable<Rec> keyed by transaction id, where Rec is the site's own
/// record type.
///
///  * Records live in a slab at stable addresses (a deque of slots that is
///    never shuffled) behind a flat open-addressing id index: a lookup is
///    one probe plus one indexed load, and a reference to one record stays
///    valid across the emplace or erase of any other id, so a pipeline step
///    may hold `Rec&` while it admits or retires neighbours.
///  * erase() resets the record (releasing what it owns) and puts its slot
///    on a free list; the next emplace reuses it. In `RTDB_SANITIZE=address`
///    builds a free slot is poisoned, so a stale `Rec&` kept past its
///    erase fails loudly instead of reaching the slot's next tenant.
///  * current() is the guard every stale continuation needs — present,
///    still live, and (for epoch-tagged records) at the attempt the
///    callback was armed for.
///  * ids() is the sweep for anything whose effect depends on visiting
///    order: ascending ids, so no crash sweep ever sees hash order.

namespace rtdb::core {

template <typename Rec>
class TxnTable {
 public:
  TxnTable() = default;
  TxnTable(const TxnTable&) = delete;
  TxnTable& operator=(const TxnTable&) = delete;
  ~TxnTable() {
    for (const std::uint32_t slot : free_) unpoison_slot(slot);
  }

  /// Inserts a default record for `id` (which must be absent) and returns
  /// it for the caller to fill in.
  Rec& emplace(TxnId id) {
    const auto [index_slot, inserted] = index_.try_emplace(id);
    assert(inserted && "TxnTable::emplace of an id already present");
    (void)inserted;
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
      unpoison_slot(slot);
    }
    *index_slot = slot;
    return slab_[slot];
  }

  [[nodiscard]] Rec* find(TxnId id) {
    const std::uint32_t* slot = index_.find(id);
    return slot ? &slab_[*slot] : nullptr;
  }
  [[nodiscard]] bool contains(TxnId id) const { return index_.contains(id); }

  void erase(TxnId id) {
    const std::size_t at = index_.slot_of(id);
    if (at == decltype(index_)::kNpos) return;
    const std::uint32_t slot = index_.value_at(at);
    index_.erase_at(at);
    retire(slot);
  }

  void clear() {
    index_.for_each([&](TxnId, std::uint32_t slot) { retire(slot); });
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

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
    out.reserve(index_.size());
    index_.for_each([&](TxnId id, std::uint32_t) { out.push_back(id); });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Order-insensitive visit (counts) without ids()'s allocation and sort.
  /// Anything whose effect depends on visiting order walks ids() instead.
  template <typename Fn>
  void for_each_unordered(Fn&& fn) const {
    index_.for_each(
        [&](TxnId, std::uint32_t slot) { fn(std::as_const(slab_[slot])); });
  }

 private:
  /// Releases what the record owns and parks its slot, poisoned.
  void retire(std::uint32_t slot) {
    slab_[slot] = Rec{};
    common::poison(&slab_[slot], sizeof(Rec));
    free_.push_back(slot);
  }
  void unpoison_slot(std::uint32_t slot) {
    common::unpoison(&slab_[slot], sizeof(Rec));
  }

  common::FlatMap<TxnId, std::uint32_t> index_;
  std::deque<Rec> slab_;
  std::vector<std::uint32_t> free_;  ///< slab slots no id owns
};

}  // namespace rtdb::core
