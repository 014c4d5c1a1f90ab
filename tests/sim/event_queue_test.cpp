#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace rtdb::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, ScheduleAndPopSingle) {
  EventQueue q;
  bool fired = false;
  q.schedule(SimTime{5.0}, [&] { fired = true; });
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time().sec(), 5.0);
  auto e = q.pop();
  EXPECT_DOUBLE_EQ(e.time.sec(), 5.0);
  e.fn();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime{3.0}, [&] { order.push_back(3); });
  q.schedule(SimTime{1.0}, [&] { order.push_back(1); });
  q.schedule(SimTime{2.0}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime{7.0}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(SimTime{1.0}, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime{1.0}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.schedule(SimTime{1.0}, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kNoEvent));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime{1.0}, [&] { order.push_back(1); });
  const EventId mid = q.schedule(SimTime{2.0}, [&] { order.push_back(2); });
  q.schedule(SimTime{3.0}, [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelHeadAdvancesNextTime) {
  EventQueue q;
  const EventId head = q.schedule(SimTime{1.0}, [] {});
  q.schedule(SimTime{9.0}, [] {});
  q.cancel(head);
  EXPECT_DOUBLE_EQ(q.next_time().sec(), 9.0);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(SimTime{1.0}, [] {});
  q.schedule(SimTime{2.0}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyInterleavedCancelsKeepOrdering) {
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(SimTime{static_cast<double>(i)}, [&fired, i] {
      fired.push_back(i);
    }));
  }
  for (int i = 0; i < 100; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(fired.size(), 50u);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], static_cast<int>(2 * k + 1));
  }
}

TEST(EventQueue, IdsAreUniqueAndMonotonic) {
  EventQueue q;
  EventId prev = kNoEvent;
  for (int i = 0; i < 20; ++i) {
    const EventId id = q.schedule(SimTime{1.0}, [] {});
    EXPECT_GT(id, prev);
    prev = id;
  }
}

// --- slab recycling & generation tags -------------------------------------
// EventId encodes (generation << 32) | (slot + 1); the low half names the
// slab slot. These tests pin the recycling contract: slots are reused, and
// an id from a slot's previous tenancy can never touch the next one.

namespace {
std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}
}  // namespace

TEST(EventQueue, CancelledSlotIsReusedWithFreshGeneration) {
  EventQueue q;
  const EventId id1 = q.schedule(SimTime{1.0}, [] {});
  EXPECT_TRUE(q.cancel(id1));
  // The cancelled entry still sits in the heap; the head purge behind
  // next_time() recycles its slot.
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  const EventId id2 = q.schedule(SimTime{2.0}, [] {});
  EXPECT_EQ(slot_of(id2), slot_of(id1));  // same slab slot...
  EXPECT_NE(id2, id1);                    // ...different generation
  // The stale handle must not cancel the slot's new tenant.
  EXPECT_FALSE(q.cancel(id1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id2));
  q.validate_invariants();
}

TEST(EventQueue, StaleIdAfterPopCannotCancelNewTenant) {
  EventQueue q;
  const EventId id1 = q.schedule(SimTime{1.0}, [] {});
  (void)q.pop();  // frees the slot
  const EventId id2 = q.schedule(SimTime{2.0}, [] {});
  ASSERT_EQ(slot_of(id2), slot_of(id1));
  bool fired = false;
  EXPECT_FALSE(q.cancel(id1));
  auto e = q.pop();
  EXPECT_EQ(e.id, id2);
  e.fn = [&] { fired = true; };
  (void)fired;
  q.validate_invariants();
}

TEST(EventQueue, SteadyStateChurnStaysWithinTheWarmSlotSet) {
  EventQueue q;
  // Warm the slab with 8 concurrent events and record their slots.
  std::vector<EventId> ids;
  std::vector<std::uint32_t> warm;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.schedule(SimTime{static_cast<double>(i)}, [] {}));
    warm.push_back(slot_of(ids.back()));
  }
  // 200 rounds of pop-one/schedule-one: every new event must land in one
  // of the warm slots (zero slab growth in steady state).
  for (int round = 0; round < 200; ++round) {
    (void)q.pop();
    const EventId id =
        q.schedule(SimTime{100.0 + round}, [] {});
    EXPECT_NE(std::find(warm.begin(), warm.end(), slot_of(id)), warm.end())
        << "round " << round << " grew the slab";
    if (round % 50 == 0) q.validate_invariants();
  }
  q.validate_invariants();
}

TEST(EventQueue, RescheduleAfterCancelChurnKeepsInvariants) {
  EventQueue q;
  // Interleave schedule/cancel/reschedule so slots cycle through
  // live -> cancelled -> free -> live while the heap still references them.
  std::vector<EventId> live;
  for (int i = 0; i < 50; ++i) {
    const auto t = SimTime{static_cast<double>(i % 7)};
    live.push_back(q.schedule(t, [] {}));
    if (i % 3 == 0 && !live.empty()) {
      EXPECT_TRUE(q.cancel(live.front()));
      live.erase(live.begin());
    }
    if (i % 5 == 0) q.validate_invariants();
  }
  // Stale ids (already cancelled) stay dead through the churn.
  std::vector<EventId> stale;
  for (int i = 0; i < 10; ++i) {
    const EventId id = q.schedule(SimTime{50.0}, [] {});
    EXPECT_TRUE(q.cancel(id));
    stale.push_back(id);
  }
  while (!q.empty()) (void)q.pop();
  for (const EventId id : stale) EXPECT_FALSE(q.cancel(id));
  q.validate_invariants();
}

// Property: whatever the interleaving of schedules, cancellations and pops
// — with timestamps drawn from a handful of values so ties dominate — every
// pop yields the live event with the smallest (time, schedule order), the
// order a sorted reference model gives. Several heap shapes (the 4-ary
// sift's full and partial child groups) are exercised across the seeds.
TEST(EventQueue, RandomTiedSchedulesPopInSortedTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    // (time, schedule order) -> (tag, id): the model of the live events.
    std::map<std::pair<double, std::uint64_t>, std::pair<int, EventId>> model;
    std::vector<int> fired;
    std::uint64_t order = 0;
    double now = 0;
    int next_tag = 0;
    const int steps = 400 + static_cast<int>(seed) * 40;
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t r = rng.uniform_int(0, 9);
      if (r < 5 || model.empty()) {
        // At most four distinct instants ahead: many equal timestamps.
        const double at = now + 0.5 * static_cast<double>(rng.uniform_int(0, 3));
        const int tag = next_tag++;
        const EventId id =
            q.schedule(SimTime{at}, [&fired, tag] { fired.push_back(tag); });
        model.emplace(std::make_pair(at, order++), std::make_pair(tag, id));
      } else if (r < 7) {
        auto victim = model.begin();
        std::advance(victim, static_cast<std::ptrdiff_t>(
                                 rng.uniform_int(0, model.size() - 1)));
        ASSERT_TRUE(q.cancel(victim->second.second));
        model.erase(victim);
      } else {
        ASSERT_FALSE(q.empty());
        ASSERT_EQ(q.next_time(), SimTime{model.begin()->first.first});
        auto ev = q.pop();
        EXPECT_EQ(ev.time, SimTime{model.begin()->first.first});
        ev.fn();
        ASSERT_FALSE(fired.empty());
        EXPECT_EQ(fired.back(), model.begin()->second.first)
            << "seed " << seed << " step " << step;
        now = model.begin()->first.first;
        model.erase(model.begin());
      }
      ASSERT_EQ(q.size(), model.size());
    }
    while (!model.empty()) {
      q.pop().fn();
      EXPECT_EQ(fired.back(), model.begin()->second.first) << "seed " << seed;
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());
    q.validate_invariants();
  }
}

}  // namespace
}  // namespace rtdb::sim
