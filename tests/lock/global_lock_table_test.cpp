#include "lock/global_lock_table.hpp"

#include <gtest/gtest.h>

namespace rtdb::lock {
namespace {

TEST(GlobalLocks, EmptyObjectGrantsAnything) {
  GlobalLockTable glt;
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{2}, LockMode::kExclusive));
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kNone);
  EXPECT_EQ(glt.location_of(ObjectId{1}), kServerSite);
}

TEST(GlobalLocks, AddHolderTracksMode) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kShared);
  EXPECT_EQ(glt.holders(ObjectId{1}).size(), 1u);
  EXPECT_EQ(glt.lock_count(ClientId{2}), 1u);
}

TEST(GlobalLocks, UpgradeKeepsStrongest) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);  // no downgrade via add
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  EXPECT_EQ(glt.holders(ObjectId{1}).size(), 1u);
}

TEST(GlobalLocks, SharedHoldersAllowMoreShared) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kShared);
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{4}, LockMode::kShared));
  EXPECT_FALSE(glt.can_grant(ObjectId{1}, ClientId{4}, LockMode::kExclusive));
}

TEST(GlobalLocks, ExclusiveHolderBlocksOthers) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_FALSE(glt.can_grant(ObjectId{1}, ClientId{3}, LockMode::kShared));
  // The holder itself is never its own conflict.
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{2}, LockMode::kExclusive));
}

TEST(GlobalLocks, ConflictingHoldersExcludesRequester) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kShared);
  auto conflicts =
      glt.conflicting_holders(ObjectId{1}, LockMode::kExclusive, ClientId{2});
  EXPECT_EQ(conflicts, (std::vector<ClientId>{ClientId{3}}));
}

TEST(GlobalLocks, RemoveHolderReturnsMode) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_EQ(glt.remove_holder(ObjectId{1}, ClientId{2}), LockMode::kExclusive);
  EXPECT_EQ(glt.remove_holder(ObjectId{1}, ClientId{2}), LockMode::kNone);
  EXPECT_EQ(glt.lock_count(ClientId{2}), 0u);
  EXPECT_EQ(glt.tracked_objects(), 0u);  // quiescent state dropped
}

TEST(GlobalLocks, DowngradeExclusiveToShared) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_TRUE(glt.downgrade_holder(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.holder_mode(ObjectId{1}, ClientId{2}), LockMode::kShared);
  EXPECT_TRUE(glt.can_grant(ObjectId{1}, ClientId{3}, LockMode::kShared));
  // Downgrading a SL or a non-holder fails.
  EXPECT_FALSE(glt.downgrade_holder(ObjectId{1}, ClientId{2}));
  EXPECT_FALSE(glt.downgrade_holder(ObjectId{1}, ClientId{9}));
}

TEST(GlobalLocks, ObjectsHeldBySite) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{5}, ClientId{2}, LockMode::kExclusive);
  glt.add_holder(ObjectId{9}, ClientId{3}, LockMode::kShared);
  auto objs = glt.objects_held_by(ClientId{2});
  std::sort(objs.begin(), objs.end());
  EXPECT_EQ(objs, (std::vector<ObjectId>{ObjectId{1}, ObjectId{5}}));
  EXPECT_TRUE(glt.objects_held_by(ClientId{99}).empty());
}

TEST(GlobalLocks, RecallBookkeeping) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);
  EXPECT_FALSE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  glt.mark_recall_sent(ObjectId{1}, ClientId{2});
  EXPECT_TRUE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.recalls_outstanding(ObjectId{1}), 1u);
  glt.clear_recall(ObjectId{1}, ClientId{2});
  EXPECT_FALSE(glt.recall_pending(ObjectId{1}, ClientId{2}));
  EXPECT_EQ(glt.recalls_outstanding(ObjectId{1}), 0u);
}

TEST(GlobalLocks, CirculationBlocksGrantsAndSetsLocation) {
  GlobalLockTable glt;
  glt.set_circulating(ObjectId{7}, /*last_client=*/ClientId{5});
  EXPECT_TRUE(glt.is_circulating(ObjectId{7}));
  EXPECT_FALSE(glt.can_grant(ObjectId{7}, ClientId{2}, LockMode::kShared));
  EXPECT_EQ(glt.location_of(ObjectId{7}), SiteId{5});
  glt.clear_circulating(ObjectId{7});
  EXPECT_FALSE(glt.is_circulating(ObjectId{7}));
  EXPECT_TRUE(glt.can_grant(ObjectId{7}, ClientId{2}, LockMode::kShared));
  EXPECT_EQ(glt.tracked_objects(), 0u);
}

TEST(GlobalLocks, LocationPrefersExclusiveHolder) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kShared);
  glt.add_holder(ObjectId{1}, ClientId{3}, LockMode::kExclusive);
  EXPECT_EQ(glt.location_of(ObjectId{1}), SiteId{3});
}

TEST(GlobalLocks, LocationFallsBackToSharedHolderThenServer) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{4}, LockMode::kShared);
  EXPECT_EQ(glt.location_of(ObjectId{1}), SiteId{4});
  glt.remove_holder(ObjectId{1}, ClientId{4});
  EXPECT_EQ(glt.location_of(ObjectId{1}), kServerSite);
}

TEST(GlobalLocks, ConflictCountAtSite) {
  GlobalLockTable glt;
  glt.add_holder(ObjectId{1}, ClientId{2}, LockMode::kExclusive);  // conflicts for anyone else
  glt.add_holder(ObjectId{5}, ClientId{3}, LockMode::kShared);     // conflicts for EL needs
  std::vector<std::pair<ObjectId, LockMode>> needs{
      {ObjectId{1}, LockMode::kShared},     // blocked by client 2's EL
      {ObjectId{5}, LockMode::kExclusive},  // blocked by client 3's SL
      {ObjectId{9}, LockMode::kShared},     // free
  };
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{4}), 2u);
  // Client 2's own EL does not conflict with itself.
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{2}), 1u);
  EXPECT_EQ(glt.conflict_count_at(needs, ClientId{3}), 1u);
}

TEST(GlobalLocks, QueueIsPerObject) {
  GlobalLockTable glt;
  ForwardEntry e;
  e.client = ClientId{2};
  e.txn = TxnId{7};
  e.mode = LockMode::kShared;
  e.priority = sim::SimTime{1.0};
  e.expires = sim::SimTime{99.0};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_EQ(glt.queue(ObjectId{1}).size(), 1u);
  EXPECT_TRUE(glt.queue(ObjectId{2}).empty());
  const ForwardList* q = glt.queue_if_any(ObjectId{1});
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->size(), 1u);
}

TEST(GlobalLocks, CompactDropsQuiescentOnly) {
  GlobalLockTable glt;
  glt.queue(ObjectId{1});  // touched but empty
  glt.add_holder(ObjectId{2}, ClientId{3}, LockMode::kShared);
  glt.compact();
  EXPECT_EQ(glt.tracked_objects(), 1u);
  EXPECT_EQ(glt.holder_mode(ObjectId{2}, ClientId{3}), LockMode::kShared);
}

TEST(GlobalLocks, ExpiredDroppedSurvivesStateRetirement) {
  // total_expired_dropped() must stay cumulative when a quiescent object
  // state is retired — both via compact() and via the drop_if_quiescent
  // path that runs after the last holder/recall/queue entry clears.
  GlobalLockTable glt;
  ForwardEntry e;
  e.client = ClientId{4};
  e.txn = TxnId{7};
  e.mode = LockMode::kExclusive;
  e.priority = sim::SimTime{1.0};
  e.expires = sim::SimTime{5.0};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_FALSE(glt.queue(ObjectId{1}).pop_next(sim::SimTime{6.0}).has_value());
  EXPECT_EQ(glt.total_expired_dropped(), 1u);

  // The state is now quiescent; compact() retires it but keeps the count.
  glt.compact();
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.total_expired_dropped(), 1u);

  // A fresh round on the same object accumulates on top.
  e.txn = TxnId{8};
  glt.queue(ObjectId{1}).add(e);
  EXPECT_FALSE(glt.queue(ObjectId{1}).pop_next(sim::SimTime{6.0}).has_value());
  EXPECT_EQ(glt.total_expired_dropped(), 2u);

  // Retirement through the release path (remove_holder -> quiescent) also
  // folds the live queue's count into the retired total.
  glt.add_holder(ObjectId{1}, ClientId{4}, LockMode::kShared);
  glt.remove_holder(ObjectId{1}, ClientId{4});
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.total_expired_dropped(), 2u);
}

TEST(GlobalLocks, QueueReferenceSurvivesOtherObjectsChurn) {
  // A queue reference held across calls (the server's grant pump does
  // this) must stay valid while other objects' states come and go, however
  // far the id space grows — object states never move.
  GlobalLockTable glt;
  ForwardList& q = glt.queue(ObjectId{0});
  for (std::uint32_t i = 1; i <= 100'000; ++i) {
    glt.add_holder(ObjectId{i}, ClientId{2}, LockMode::kShared);
    glt.remove_holder(ObjectId{i}, ClientId{2});
  }
  ForwardEntry e;
  e.client = ClientId{3};
  e.txn = TxnId{9};
  e.mode = LockMode::kExclusive;
  e.priority = sim::SimTime{1.0};
  e.expires = sim::SimTime{99.0};
  q.add(e);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(glt.queue_if_any(ObjectId{0}), &q);
  EXPECT_EQ(glt.total_queued_entries(), 1u);
  glt.validate_invariants();
}

TEST(GlobalLocks, PoolStaysAtConcurrentHighWaterMark) {
  // State is sized by the objects in play, not by the database: churning
  // 100,000 distinct objects one at a time reuses a single pooled state.
  GlobalLockTable glt;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    glt.add_holder(ObjectId{i}, ClientId{2}, LockMode::kExclusive);
    glt.mark_recall_sent(ObjectId{i}, ClientId{2});
    glt.remove_holder(ObjectId{i}, ClientId{2});
    glt.clear_recall(ObjectId{i}, ClientId{2});
  }
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.pool_size(), 1u);
  glt.validate_invariants();

  // Three objects in play at once raise the mark to three; a sliding
  // window of three over the rest of the id space reuses those states.
  for (std::uint32_t i = 0; i < 3; ++i) {
    glt.add_holder(ObjectId{i}, ClientId{2}, LockMode::kShared);
  }
  for (std::uint32_t i = 3; i < 100'000; ++i) {
    glt.remove_holder(ObjectId{i - 3}, ClientId{2});
    glt.add_holder(ObjectId{i}, ClientId{2}, LockMode::kShared);
  }
  EXPECT_EQ(glt.tracked_objects(), 3u);
  EXPECT_EQ(glt.pool_size(), 3u);
  EXPECT_EQ(glt.lock_count(ClientId{2}), 3u);
  glt.validate_invariants();

  // clear() returns every state to the pool; nothing is freed.
  glt.clear();
  EXPECT_EQ(glt.tracked_objects(), 0u);
  EXPECT_EQ(glt.pool_size(), 3u);
  glt.validate_invariants();
}

TEST(GlobalLocks, RecycledStateStartsClean) {
  // A state retired by one object and reused by another carries nothing
  // over: no holders, recalls, circulation or queued entries.
  GlobalLockTable glt;
  glt.add_holder(ObjectId{5}, ClientId{2}, LockMode::kExclusive);
  glt.set_circulating(ObjectId{5}, ClientId{4});
  glt.clear_circulating(ObjectId{5});
  glt.remove_holder(ObjectId{5}, ClientId{2});
  EXPECT_EQ(glt.tracked_objects(), 0u);
  glt.mark_recall_sent(ObjectId{9}, ClientId{3});
  EXPECT_EQ(glt.pool_size(), 1u);
  EXPECT_TRUE(glt.holders(ObjectId{9}).empty());
  EXPECT_FALSE(glt.is_circulating(ObjectId{9}));
  EXPECT_TRUE(glt.queue(ObjectId{9}).empty());
  EXPECT_EQ(glt.recalls_outstanding(ObjectId{9}), 1u);
  EXPECT_EQ(glt.location_of(ObjectId{9}), kServerSite);
  glt.validate_invariants();
}

}  // namespace
}  // namespace rtdb::lock
