/// \file txn_table_test.cpp
/// core::TxnTable — the per-site transaction table every prototype uses:
/// ascending sweeps, the live-and-current guard, reference stability.

#include <gtest/gtest.h>

#include <vector>

#include "core/txn_table.hpp"

namespace rtdb::core {
namespace {

struct Rec {
  txn::Transaction t;
  std::uint32_t epoch = 0;
  int payload = 0;
};

Rec& add(TxnTable<Rec>& table, std::uint64_t id, int payload = 0) {
  Rec& r = table.emplace(TxnId{id});
  r.t.id = TxnId{id};
  r.t.state = txn::TxnState::kAcquiring;
  r.payload = payload;
  return r;
}

TEST(TxnTable, IdsAreAscendingWhateverTheInsertionOrder) {
  TxnTable<Rec> table;
  for (std::uint64_t id : {907u, 3u, 55u, 1u, 400u, 12u, 6001u, 2u}) {
    add(table, id);
  }
  table.erase(TxnId{55});
  const std::vector<TxnId> expected{TxnId{1},   TxnId{2},   TxnId{3},
                                    TxnId{12},  TxnId{400}, TxnId{907},
                                    TxnId{6001}};
  EXPECT_EQ(table.ids(), expected);
  EXPECT_EQ(table.size(), expected.size());
}

TEST(TxnTable, CurrentRejectsMissingTerminalAndStaleEpoch) {
  TxnTable<Rec> table;
  Rec& r = add(table, 7);
  r.epoch = 2;

  EXPECT_EQ(table.current(TxnId{8}), nullptr);      // missing id
  EXPECT_EQ(table.current(TxnId{8}, 2), nullptr);
  EXPECT_EQ(table.current(TxnId{7}), &r);
  EXPECT_EQ(table.current(TxnId{7}, 2), &r);
  EXPECT_EQ(table.current(TxnId{7}, 1), nullptr);   // stale attempt

  for (const auto terminal : {txn::TxnState::kCommitted,
                              txn::TxnState::kMissed,
                              txn::TxnState::kAborted}) {
    r.t.state = terminal;
    EXPECT_EQ(table.current(TxnId{7}), nullptr);
    EXPECT_EQ(table.current(TxnId{7}, 2), nullptr);
    EXPECT_EQ(table.find(TxnId{7}), &r);  // still present, just not live
  }
}

TEST(TxnTable, HeldReferenceSurvivesOtherEmplacesAndErases) {
  TxnTable<Rec> table;
  Rec& held = add(table, 500, /*payload=*/42);
  // Enough neighbours to force several rehashes, then erase most of them.
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    if (id != 500) add(table, id, static_cast<int>(id));
  }
  for (std::uint64_t id = 1; id <= 2000; id += 3) {
    if (id != 500) table.erase(TxnId{id});
  }
  EXPECT_EQ(&held, table.find(TxnId{500}));
  EXPECT_EQ(held.payload, 42);
  EXPECT_EQ(held.t.id, TxnId{500});
}

TEST(TxnTable, EraseAndClearEmptyTheTable) {
  TxnTable<Rec> table;
  add(table, 1);
  add(table, 2);
  EXPECT_TRUE(table.contains(TxnId{1}));
  table.erase(TxnId{1});
  EXPECT_FALSE(table.contains(TxnId{1}));
  EXPECT_EQ(table.find(TxnId{1}), nullptr);
  table.erase(TxnId{1});  // erasing an absent id is a no-op
  EXPECT_EQ(table.size(), 1u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.ids().empty());
}

}  // namespace
}  // namespace rtdb::core
