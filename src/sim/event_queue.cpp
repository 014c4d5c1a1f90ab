#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

#include "common/check.hpp"
#include "common/perf.hpp"

namespace rtdb::sim {

void EventQueue::validate_invariants() const {
  std::size_t live = 0, cancelled = 0, free_slots = 0;
  for (const Slot& s : slots_) {
    switch (s.state) {
      case kLive: ++live; break;
      case kCancelled: ++cancelled; break;
      case kFree: ++free_slots; break;
      default:
        RTDB_CHECK(false, "slot in unknown state %u", unsigned{s.state});
    }
  }
  RTDB_CHECK(live == live_, "live count %zu != live slots %zu", live_, live);
  RTDB_CHECK(cancelled == cancelled_,
             "cancelled count %zu != cancelled slots %zu", cancelled_,
             cancelled);
  RTDB_CHECK(heap_.size() == live + cancelled,
             "heap holds %zu items, slots account for %zu", heap_.size(),
             live + cancelled);
  // Heap items map 1:1 onto non-free slots: the slot's sequence number must
  // match (a mismatch means a slot was recycled while still in the heap).
  for (const HeapItem& item : heap_) {
    RTDB_CHECK(item.slot < slots_.size(), "heap item names slot %u of %zu",
               item.slot, slots_.size());
    const Slot& s = slots_[item.slot];
    RTDB_CHECK(s.state != kFree, "heap item references free slot %u",
               item.slot);
    RTDB_CHECK(s.seq == item.seq,
               "heap item seq %llu != slot seq %llu (slot %u recycled "
               "under a live heap item)",
               static_cast<unsigned long long>(item.seq),
               static_cast<unsigned long long>(s.seq), item.slot);
    RTDB_CHECK(!(s.state == kLive) || s.time == item.time,
               "heap item time disagrees with its live slot");
  }
  // Heap order property.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / kHeapArity;
    RTDB_CHECK(!earlier(heap_[i], heap_[parent]),
               "heap property violated at index %zu", i);
  }
  // Free list: acyclic (bounded walk) and accounts for every free slot.
  std::size_t walked = 0;
  for (std::uint32_t s = free_head_; s != kNoSlot; s = slots_[s].next_free) {
    RTDB_CHECK(s < slots_.size(), "free list references slot %u of %zu", s,
               slots_.size());
    RTDB_CHECK(slots_[s].state == kFree, "free list holds non-free slot %u",
               s);
    ++walked;
    RTDB_CHECK(walked <= slots_.size(), "free list cycle detected");
  }
  RTDB_CHECK(walked == free_slots,
             "free list holds %zu slots, %zu slots are free", walked,
             free_slots);
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.state = kFree;
  ++s.gen;  // retire every id handed out for this tenancy
  s.next_free = free_head_;
  free_head_ = slot;
}

// A 4-ary heap, sifted by moving the hole rather than swapping: half the
// element moves of the textbook binary version and a quarter of the depth,
// which matters because these two functions bracket every simulated event.
// Pop order is unaffected by arity — (time, seq) keys are unique, so the
// sequence of minimums is the same total order either way.

void EventQueue::heap_push(HeapItem item) {
  heap_.push_back(item);  // grow first; the hole starts at the new slot
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!earlier(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void EventQueue::heap_pop() {
  assert(!heap_.empty());
  const HeapItem item = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  const HeapItem* h = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    std::size_t smallest;
    if (first + kHeapArity <= n) {
      // All four children exist (the common case below the last level):
      // a two-round tournament whose picks compile to conditional moves.
      const std::size_t a = first + static_cast<std::size_t>(
                                        earlier(h[first + 1], h[first]));
      const std::size_t b = first + 2 +
                            static_cast<std::size_t>(
                                earlier(h[first + 3], h[first + 2]));
      smallest = earlier(h[b], h[a]) ? b : a;
    } else {
      smallest = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[smallest])) smallest = c;
      }
    }
    if (!earlier(h[smallest], item)) break;
    heap_[i] = h[smallest];
    i = smallest;
  }
  heap_[i] = item;
}

EventId EventQueue::schedule(SimTime at, Callback fn) {
  assert(fn && "scheduling an empty callback");
  RTDB_PERF_TIMER(kSimSchedule);
  RTDB_PERF_ALLOC_SCOPE(kSim);
  RTDB_PERF_COUNT(kSimEventsScheduled);
  // rtdb-lint: allow(hot-path-alloc) slab grows to the live-event high-water
  // mark, then the free list recycles slots (PR 8 census: zero steady-state)
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.time = at;
  s.seq = next_seq_++;
  s.state = kLive;
  s.fn = std::move(fn);
  // rtdb-lint: allow(hot-path-alloc) heap vector reaches high-water capacity
  // during warm-up; pops shrink size, capacity is reused
  heap_push(HeapItem{at, s.seq, slot});
  ++live_;
  return make_id(s.gen, slot);
}

bool EventQueue::cancel(EventId id) {
  const auto low = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (low == 0) return false;  // kNoEvent / malformed
  const std::uint32_t slot = low - 1;
  if (slot >= slots_.size()) return false;  // never existed
  Slot& s = slots_[slot];
  if (s.state != kLive || s.gen != static_cast<std::uint32_t>(id >> 32)) {
    return false;  // fired, cancelled, or a stale-generation handle
  }
  RTDB_PERF_COUNT(kSimEventsCancelled);
  s.state = kCancelled;
  s.fn.reset();  // release the capture (and any pooled block) eagerly
  --live_;
  ++cancelled_;
  return true;
}

void EventQueue::drop_dead_head() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_[0].slot;
    if (slots_[slot].state == kLive) return;
    RTDB_PERF_COUNT(kSimDeadHeadDrops);
    release_slot(slot);
    --cancelled_;
    heap_pop();
  }
}

SimTime EventQueue::next_time() const {
  // Lazily purge cancelled entries from the head so the reported time is
  // that of a live event. Logically const: observable state is unchanged.
  auto* self = const_cast<EventQueue*>(this);
  self->drop_dead_head();
  if (heap_.empty()) return kTimeInfinity;
  return heap_[0].time;
}

EventQueue::Fired EventQueue::pop() {
  RTDB_PERF_TIMER(kSimPop);
  RTDB_PERF_ALLOC_SCOPE(kSim);
  RTDB_PERF_COUNT(kSimEventsFired);
  drop_dead_head();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapItem head = heap_[0];
  Slot& s = slots_[head.slot];
  Fired fired{s.time, make_id(s.gen, head.slot), std::move(s.fn)};
  release_slot(head.slot);
  heap_pop();
  --live_;
  return fired;
}

}  // namespace rtdb::sim
