#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "core/client_server.hpp"
#include "core/runner.hpp"

/// \file copy_table_test.cpp
/// Per-client state is sized by what the client holds, not by the
/// database: with uniform access over a database hundreds of times larger
/// than a cache, every client touches objects all over the id space, yet
/// its copy table (cached locks and copy versions) never outgrows its cache
/// plus the forward duties it carries. The structure audit runs alongside
/// and rejects any row that is all defaults or names an object the client
/// neither caches nor locks.

namespace rtdb::core {
namespace {

class CopyTableBound : public ::testing::TestWithParam<SystemKind> {};

TEST_P(CopyTableBound, RowsStayWithinCacheCapacityPlusDuties) {
  SystemConfig cfg = SystemConfig::paper_defaults(20.0);
  cfg.num_clients = 20;
  cfg.workload.db_size = 100'000;
  cfg.workload.locality = 0.0;
  cfg.workload.zipf_theta = 0.0;
  // Small cold caches: every client churns through evictions, dirty ones
  // included, within a short run.
  cfg.warm_start = false;
  cfg.client_cache.memory_capacity = 100;
  cfg.client_cache.disk_capacity = 100;
  cfg.warmup = sim::seconds(20);
  cfg.duration = sim::seconds(400);
  cfg.drain = sim::seconds(30);
  cfg.seed = 5;
  cfg.audit_interval = 256;
  auto sys = make_system(GetParam(), cfg);
  auto& cs = dynamic_cast<ClientServerSystem&>(*sys);
  const std::size_t capacity =
      cfg.client_cache.memory_capacity + cfg.client_cache.disk_capacity;

  std::size_t peak_rows = 0;
  std::size_t probes = 0;
  std::function<void()> probe = [&] {
    ++probes;
    for (ClientId c{1}; c.value() <= static_cast<int>(cfg.num_clients); ++c) {
      const ClientNode& node = cs.client(c);
      ASSERT_LE(node.copy_rows(), capacity + node.forward_duties())
          << "site " << c.value() << " at t=" << sys->simulator().now().sec();
      peak_rows = std::max(peak_rows, node.copy_rows());
    }
    sys->simulator().after(sim::seconds(1), [&] { probe(); });
  };
  sys->simulator().after(sim::seconds(1), [&] { probe(); });

  const RunMetrics m = sys->run();
  EXPECT_TRUE(m.accounted()) << summarize(m);
  EXPECT_TRUE(sys->auditor().violations().empty());
  EXPECT_GT(probes, 100u);
  // Some cache filled up, and the run evicted well over a cache's worth
  // per client: the bound held under eviction churn.
  EXPECT_GE(peak_rows, capacity);
  EXPECT_GT(m.cache_misses, 2 * capacity * cfg.num_clients);
}

INSTANTIATE_TEST_SUITE_P(CsAndLs, CopyTableBound,
                         ::testing::Values(SystemKind::kClientServer,
                                           SystemKind::kLoadSharing),
                         [](const auto& info) {
                           return info.param == SystemKind::kClientServer
                                      ? std::string("CS")
                                      : std::string("LS");
                         });

}  // namespace
}  // namespace rtdb::core
