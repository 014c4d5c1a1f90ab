#include "core/client_server.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"

namespace rtdb::core {
namespace {

SystemConfig small_cfg(std::size_t clients, double update_pct = 5.0) {
  SystemConfig cfg = SystemConfig::paper_defaults(update_pct);
  cfg.num_clients = clients;
  cfg.warmup = sim::seconds(100);
  cfg.duration = sim::seconds(400);
  cfg.drain = sim::seconds(200);
  cfg.seed = 777;
  return cfg;
}

RunMetrics run_cs(const SystemConfig& cfg) {
  return run_once(SystemKind::kClientServer, cfg);
}

TEST(ClientServer, AccountsEveryTransaction) {
  const auto m = run_cs(small_cfg(8));
  EXPECT_GT(m.generated, 100u);
  EXPECT_TRUE(m.accounted()) << summarize(m);
}

// The server only keeps lock-table state for objects in play: every
// request path asks before creating a state, and every path that empties
// a queue retires a state left idle. So at the end of a run there is
// nothing for GlobalLockTable::compact() to retire — under contention and
// under uniform access to a large database alike.
TEST(ClientServer, RunLeavesNoIdleLockTableStates) {
  SystemConfig contended = small_cfg(12, 20.0);
  SystemConfig uniform = small_cfg(20, 1.0);
  uniform.workload.db_size = 100'000;
  uniform.workload.locality = 0.0;
  uniform.workload.zipf_theta = 0.0;
  for (const SystemConfig& cfg : {contended, uniform}) {
    ClientServerSystem sys(cfg);
    const RunMetrics m = sys.run();
    EXPECT_TRUE(m.accounted()) << summarize(m);
    const auto& glt = sys.server().lock_table();
    EXPECT_GT(glt.tracked_objects(), 0u);  // cached SLs stay registered
    EXPECT_EQ(glt.quiescent_tracked(), 0u)
        << glt.quiescent_tracked() << " of " << glt.tracked_objects()
        << " tracked states are idle";
  }
}

TEST(ClientServer, DeterministicForSeed) {
  const auto a = run_cs(small_cfg(8));
  const auto b = run_cs(small_cfg(8));
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.messages.total_messages(), b.messages.total_messages());
}

TEST(ClientServer, UsesObjectShippingProtocol) {
  const auto m = run_cs(small_cfg(8));
  EXPECT_GT(m.messages.messages(net::MessageKind::kObjectRequest), 0u);
  EXPECT_GT(m.messages.messages(net::MessageKind::kObjectShip), 0u);
  // Basic CS never ships transactions or runs LS machinery.
  EXPECT_EQ(m.messages.messages(net::MessageKind::kTxnShip), 0u);
  EXPECT_EQ(m.messages.messages(net::MessageKind::kSubtaskShip), 0u);
  EXPECT_EQ(m.messages.messages(net::MessageKind::kLocationQuery), 0u);
  EXPECT_EQ(m.shipped_txns, 0u);
  EXPECT_EQ(m.decomposed_txns, 0u);
  EXPECT_EQ(m.forward_list_satisfactions, 0u);
}

TEST(ClientServer, CallbacksHappenUnderContention) {
  const auto m = run_cs(small_cfg(12, 20.0));
  EXPECT_GT(m.messages.messages(net::MessageKind::kObjectRecall), 0u);
  EXPECT_GT(m.messages.messages(net::MessageKind::kObjectReturn), 0u);
}

TEST(ClientServer, RecallsRoughlyMatchReturns) {
  const auto m = run_cs(small_cfg(12, 20.0));
  const auto recalls = m.messages.messages(net::MessageKind::kObjectRecall);
  const auto returns = m.messages.messages(net::MessageKind::kObjectReturn);
  // Returns answer recalls plus voluntary eviction returns; Table 4 shows
  // them nearly equal.
  EXPECT_GE(returns + 50, recalls);
}

TEST(ClientServer, CacheHitsAccumulate) {
  // Pin the region to the paper's 20-client value (500 objects) so each
  // region fits the 1000-object cache even with few simulated clients.
  auto cfg = small_cfg(8, 1.0);
  cfg.workload.region_size = 500;
  cfg.warmup = sim::seconds(400);
  const auto m = run_cs(cfg);
  EXPECT_GT(m.cache_hit_percent(), 40.0) << summarize(m);
  EXPECT_GT(m.cache_hits, 0u);
  EXPECT_GT(m.cache_misses, 0u);
}

TEST(ClientServer, LowerUpdateRateGivesHigherHitRate) {
  const auto low = run_cs(small_cfg(12, 1.0));
  const auto high = run_cs(small_cfg(12, 20.0));
  EXPECT_GT(low.cache_hit_percent(), high.cache_hit_percent());
}

TEST(ClientServer, ObjectResponseTimesMeasured) {
  // High update rate and enough clients to create real callback traffic;
  // at trivial contention both modes are served at fetch speed.
  auto m = run_cs(small_cfg(24, 20.0));
  EXPECT_GT(m.object_response_shared.count(), 0u);
  EXPECT_GT(m.object_response_exclusive.count(), 0u);
  // The typical exclusive request waits for callbacks; the typical shared
  // one does not (means are both dominated by a deferral tail, so compare
  // medians — the paper's Table 3 gap shows up at full scale).
  EXPECT_GT(m.object_response_exclusive.quantile(0.5),
            m.object_response_shared.quantile(0.5));
}

TEST(ClientServer, StableAcrossClientCounts) {
  // The paper's key CS property: nearly flat success as clients grow.
  const auto small = run_cs(small_cfg(6));
  const auto large = run_cs(small_cfg(30));
  EXPECT_NEAR(small.success_percent(), large.success_percent(), 15.0);
}

TEST(ClientServer, HigherUpdatesHurt) {
  const auto low = run_cs(small_cfg(16, 1.0));
  const auto high = run_cs(small_cfg(16, 20.0));
  EXPECT_GE(low.success_percent() + 1.0, high.success_percent());
}

TEST(ClientServer, LockGrantsForCachedUpgrades) {
  const auto m = run_cs(small_cfg(12, 20.0));
  // SL->EL upgrades on cached objects travel as lock-only grants.
  EXPECT_GT(m.messages.messages(net::MessageKind::kLockGrant), 0u);
}

TEST(ClientServer, ClientStateQuiescesAfterRun) {
  SystemConfig cfg = small_cfg(6);
  ClientServerSystem sys(cfg);
  sys.run();
  for (ClientId c{1}; c.value() <= static_cast<int>(cfg.num_clients); ++c) {
    EXPECT_TRUE(sys.client(c).lock_manager().idle()) << "site " << c;
    EXPECT_EQ(sys.client(c).live_count(), 0u) << "site " << c;
  }
}

TEST(ClientServer, DeadlockRefusalsDetectedUnderHighUpdates) {
  const auto m = run_cs(small_cfg(16, 20.0));
  // Cross-client upgrade deadlocks must be refused, not waited out.
  EXPECT_GT(m.deadlock_refusals + m.aborted, 0u);
}

}  // namespace
}  // namespace rtdb::core
