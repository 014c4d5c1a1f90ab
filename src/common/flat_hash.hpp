#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

/// \file flat_hash.hpp
/// Open-addressing hash containers for the simulator's hot lock-path tables
/// (ROADMAP "map-heavy lock tables"). Compared with the node-based
/// `std::unordered_*` they replace:
///
///  * one contiguous slot array + one byte of control state per slot — no
///    per-element allocations, no bucket chains to chase;
///  * linear probing over a power-of-two capacity with a strong 64-bit
///    mixer (sequential ids — the common key shape here — spread cleanly);
///  * erasure by tombstone, reclaimed wholesale at the next rehash.
///
/// Determinism contract: iteration (`for_each`) walks the slot array, so
/// the order depends on insertion/erasure history — exactly like the
/// `unordered_*` containers these replace, it must never feed ordered
/// decisions. Callers either aggregate (counts/sums), check invariants, or
/// sort what they collect; the WaitForGraph determinism test pins this.
///
/// Keys must be trivially copyable ids: integral types or strong ids
/// exposing `.value()`.

namespace rtdb::common {

namespace flat_detail {

template <class K>
constexpr std::uint64_t key_of(K k) {
  if constexpr (requires { k.value(); }) {
    return static_cast<std::uint64_t>(k.value());
  } else {
    return static_cast<std::uint64_t>(k);
  }
}

/// splitmix64 finalizer: full-avalanche mixing so dense sequential ids do
/// not cluster under the power-of-two mask.
constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace flat_detail

/// Open-addressing hash map. V must be default-constructible and movable;
/// erase resets the slot's value to V{} (releasing its resources) and
/// leaves a tombstone.
template <class K, class V>
class FlatMap {
 public:
  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Slots currently tombstoned (diagnostics/tests).
  [[nodiscard]] std::size_t tombstones() const { return tombs_; }
  [[nodiscard]] std::size_t capacity() const { return ctrl_.size(); }

  [[nodiscard]] V* find(K key) {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(K key) const {
    const std::size_t i = find_index(key);
    return i == kNpos ? nullptr : &slots_[i].value;
  }

  [[nodiscard]] bool contains(K key) const { return find_index(key) != kNpos; }

  /// Returns the value for `key`, inserting a default-constructed one if
  /// absent (the unordered_map::operator[] idiom).
  V& get_or_insert(K key) {
    reserve_for_insert();
    const std::size_t cap = ctrl_.size();
    const std::size_t mask = cap - 1;
    std::size_t i = flat_detail::mix(flat_detail::key_of(key)) & mask;
    std::size_t first_tomb = kNpos;
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == kFull) {
        if (slots_[i].key == key) return slots_[i].value;
      } else if (c == kTomb) {
        if (first_tomb == kNpos) first_tomb = i;
      } else {  // kEmpty: key is absent
        std::size_t target = first_tomb != kNpos ? first_tomb : i;
        if (ctrl_[target] == kTomb) --tombs_;
        ctrl_[target] = kFull;
        slots_[target].key = key;
        slots_[target].value = V{};
        ++size_;
        return slots_[target].value;
      }
      i = (i + 1) & mask;
    }
  }

  /// Finds `key` or inserts a default value for it, in one probe. Returns
  /// the value and whether it was inserted (the try_emplace idiom).
  std::pair<V*, bool> try_emplace(K key) {
    const std::size_t before = size_;
    V* v = &get_or_insert(key);
    return {v, size_ != before};
  }

  /// Slot-handle access for callers that probe once and then decide:
  /// slot_of() returns the slot holding `key` (kNpos if absent); the handle
  /// stays valid until the next insertion, which may rehash.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t slot_of(K key) const { return find_index(key); }
  [[nodiscard]] V& value_at(std::size_t slot) { return slots_[slot].value; }

  /// Removes `key`. Returns true if it was present.
  bool erase(K key) {
    const std::size_t i = find_index(key);
    if (i == kNpos) return false;
    erase_at(i);
    return true;
  }

  /// Removes the entry in a slot from slot_of() — no second probe.
  void erase_at(std::size_t i) {
    ctrl_[i] = kTomb;
    slots_[i].key = K{};
    slots_[i].value = V{};
    --size_;
    ++tombs_;
    // If the next slot is empty, no probe chain passes through this one, so
    // it (and any run of tombstones immediately before it) can revert to
    // empty. Under churn this keeps tombstones from accumulating between
    // sweeps — the dominant rehash trigger for small, sparse tables.
    const std::size_t mask = ctrl_.size() - 1;
    if (ctrl_[(i + 1) & mask] == kEmpty) {
      while (ctrl_[i] == kTomb) {
        ctrl_[i] = kEmpty;
        --tombs_;
        i = (i - 1) & mask;
      }
    }
  }

  void clear() {
    ctrl_.clear();
    slots_.clear();
    size_ = 0;
    tombs_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap *= 2;  // keep load under 0.75
    if (cap > ctrl_.size()) rehash(cap);
  }

  /// Visits every (key, value) pair in slot order (NOT a deterministic
  /// order across histories — aggregate, audit, or sort; never decide).
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) f(slots_[i].key, slots_[i].value);
    }
  }
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) f(slots_[i].key, slots_[i].value);
    }
  }

  /// Invariant audit: control bytes, live/tombstone tallies and key
  /// positions agree (every full slot is findable from its home bucket).
  void validate_invariants() const {
    std::size_t full = 0, tombs = 0;
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) {
        ++full;
        RTDB_CHECK(find_index(slots_[i].key) == i,
                   "flat table slot %zu unreachable from its home bucket",
                   i);
      } else if (ctrl_[i] == kTomb) {
        ++tombs;
      }
    }
    RTDB_CHECK(full == size_, "flat table size %zu != full slots %zu", size_,
               full);
    RTDB_CHECK(tombs == tombs_, "flat table tombs %zu != tomb slots %zu",
               tombs_, tombs);
  }

 private:
  struct Slot {
    K key{};
    V value{};
  };

  static constexpr std::uint8_t kEmpty = 0, kFull = 1, kTomb = 2;
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t find_index(K key) const {
    if (ctrl_.empty()) return kNpos;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = flat_detail::mix(flat_detail::key_of(key)) & mask;
    for (;;) {
      const std::uint8_t c = ctrl_[i];
      if (c == kFull && slots_[i].key == key) return i;
      if (c == kEmpty) return kNpos;
      i = (i + 1) & mask;
    }
  }

  void reserve_for_insert() {
    const std::size_t cap = ctrl_.size();
    if (cap == 0) {
      rehash(kMinCapacity);
      return;
    }
    // Rehash when live + tombstoned slots reach 3/4 of capacity: grow if
    // genuinely full, else same-size to sweep tombstones.
    if ((size_ + tombs_ + 1) * 4 > cap * 3) {
      rehash(size_ * 2 >= cap ? cap * 2 : cap);
    }
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<Slot> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    // Fresh vector rather than resize(): resize() instantiates vector's
    // reallocation path, which copy-constructs elements when V's move is
    // not noexcept — and V only needs to be movable here.
    slots_ = std::vector<Slot>(new_cap);
    tombs_ = 0;
    const std::size_t mask = new_cap - 1;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      std::size_t j =
          flat_detail::mix(flat_detail::key_of(old_slots[i].key)) & mask;
      while (ctrl_[j] == kFull) j = (j + 1) & mask;
      ctrl_[j] = kFull;
      slots_[j].key = old_slots[i].key;
      slots_[j].value = std::move(old_slots[i].value);
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

/// Open-addressing hash set: FlatMap with a zero-size payload surface.
template <class K>
class FlatSet {
 public:
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  [[nodiscard]] std::size_t tombstones() const { return map_.tombstones(); }
  [[nodiscard]] std::size_t capacity() const { return map_.capacity(); }

  [[nodiscard]] bool contains(K key) const { return map_.contains(key); }

  /// Returns true if `key` was newly inserted.
  bool insert(K key) { return map_.try_emplace(key).second; }

  bool erase(K key) { return map_.erase(key); }
  void clear() { map_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); }

  template <class F>
  void for_each(F&& f) const {
    map_.for_each([&](K k, const Empty&) { f(k); });
  }

  void validate_invariants() const { map_.validate_invariants(); }

 private:
  struct Empty {};
  FlatMap<K, Empty> map_;
};

}  // namespace rtdb::common
