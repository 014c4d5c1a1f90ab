#pragma once

#include <cstdint>
#include <vector>

#include "common/small_function.hpp"
#include "sim/time.hpp"

/// \file event_queue.hpp
/// Priority queue of timestamped events with deterministic tie-breaking.

namespace rtdb::sim {

/// Identifies a scheduled event so it can be cancelled before it fires.
/// Encodes (generation << 32) | (slot + 1): the low half names a slab slot,
/// the high half is that slot's generation at schedule time, so a handle
/// kept past its event's firing can never cancel the slot's next tenant.
using EventId = std::uint64_t;

/// Invalid / "no event" id (no slot encoding ever produces 0).
inline constexpr EventId kNoEvent = 0;

/// A time-ordered queue of callbacks.
///
/// Two events scheduled for the same instant fire in the order they were
/// scheduled (FIFO within a timestamp), which makes whole-cluster simulations
/// reproducible run-to-run for a fixed seed.
///
/// Storage is a generation-tagged slab: each scheduled event occupies one
/// recycled slot (free-list, O(1) alloc/free, no hashing), and a 4-ary
/// heap orders lightweight 24-byte {time, seq, slot} items rather than whole
/// entries. `schedule()` therefore performs zero heap allocations in steady
/// state — the dominant cost of the old `priority_queue<Entry>` + two
/// `unordered_set<EventId>` design. Cancellation stays lazy: `cancel()`
/// marks the slot dead in O(1) and the head purge skips dead entries.
class EventQueue {
 public:
  using Callback = common::SmallFunction<void()>;

  /// A scheduled (time, callback) pair ready to execute.
  struct Fired {
    SimTime time{};
    EventId id = kNoEvent;
    Callback fn;
  };

  EventQueue() = default;

  /// Schedules `fn` to fire at absolute time `at`. Returns a handle usable
  /// with `cancel()`. `at` may equal the current head time; ordering among
  /// equal timestamps is schedule order.
  EventId schedule(SimTime at, Callback fn);

  /// Cancels a previously scheduled event. Returns false if the event
  /// already fired, was already cancelled, or never existed. O(1): the id
  /// names its slot directly and the generation tag rejects stale handles.
  bool cancel(EventId id);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live (not cancelled, not fired) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the next live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the next live event. Precondition: !empty().
  Fired pop();

  /// Invariant audit: per-state slot counts match the live/cancelled
  /// tallies, heap items map 1:1 onto non-free slots (sequence numbers
  /// agree), the free list is acyclic and accounts for every free slot, and
  /// the heap order property holds. Aborts on violation.
  void validate_invariants() const;

 private:
  enum : std::uint8_t { kFree = 0, kLive = 1, kCancelled = 2 };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Heap fan-out (4-ary: shallower sifts, children share cache lines).
  static constexpr std::size_t kHeapArity = 4;

  struct Slot {
    SimTime time{};
    std::uint64_t seq = 0;  ///< schedule order; the FIFO tie-breaker
    std::uint32_t gen = 0;  ///< bumped when the slot is freed
    std::uint32_t next_free = kNoSlot;
    std::uint8_t state = kFree;
    Callback fn;  ///< destroyed on cancel; moved out on pop
  };

  /// What the heap actually sifts: 24 bytes, trivially copyable.
  struct HeapItem {
    SimTime time{};
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(slot + 1);
  }

  /// (time, seq) order, written without short-circuit branches so a
  /// child tournament compiles to conditional moves.
  static bool earlier(const HeapItem& a, const HeapItem& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(HeapItem item);
  void heap_pop();
  void drop_dead_head();

  std::vector<HeapItem> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t cancelled_ = 0;  ///< cancelled slots still referenced by heap_
};

}  // namespace rtdb::sim
