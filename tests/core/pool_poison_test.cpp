/// \file pool_poison_test.cpp
/// Pooled slots are poisoned while free (RTDB_SANITIZE=address builds): a
/// stale reference into a retired GlobalLockTable state or an erased
/// TxnTable record must fail under AddressSanitizer instead of silently
/// reading the slot's next tenant. Other builds skip these tests — there
/// the access is exactly the silent hazard the poisoning exists to catch.

#include <gtest/gtest.h>

#include "common/poison.hpp"
#include "core/txn_table.hpp"
#include "lock/global_lock_table.hpp"

namespace rtdb {
namespace {

struct Rec {
  txn::Transaction t;
  std::uint32_t epoch = 0;
  int payload = 0;
};

// A volatile sink keeps the stale read from being optimized away.
volatile int g_sink = 0;

TEST(PoolPoison, StaleReferencesIntoFreedSlotsFailUnderAsan) {
#if RTDB_POISONING
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        core::TxnTable<Rec> table;
        Rec& r = table.emplace(TxnId{7});
        r.payload = 42;
        table.erase(TxnId{7});
        g_sink = r.payload;  // stale: the slot is back on the free list
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        lock::GlobalLockTable glt;
        lock::ForwardList& q = glt.queue(ObjectId{3});
        glt.add_holder(ObjectId{3}, ClientId{1}, lock::LockMode::kShared);
        glt.remove_holder(ObjectId{3}, ClientId{1});  // retires the state
        g_sink = static_cast<int>(q.size());
      },
      "use-after-poison");
  // Live slots stay addressable, and reuse unpoisons the recycled slot.
  core::TxnTable<Rec> table;
  table.emplace(TxnId{1}).payload = 1;
  table.erase(TxnId{1});
  Rec& again = table.emplace(TxnId{2});
  again.payload = 2;
  EXPECT_EQ(table.find(TxnId{2})->payload, 2);
#else
  GTEST_SKIP() << "free-slot poisoning is compiled in only under "
                  "RTDB_SANITIZE=address";
#endif
}

}  // namespace
}  // namespace rtdb
