/// \file telemetry_events_test.cpp
/// The typed telemetry event stream wired into a live cluster: protocol
/// steps appear as typed events in the expected order.

#include <gtest/gtest.h>

#include <map>

#include "core/client_server.hpp"

namespace rtdb::core {
namespace {

using obs::EventKind;

txn::Transaction mk(TxnId id, SiteId origin, sim::SimTime now,
                    std::vector<txn::Operation> ops) {
  txn::Transaction t;
  t.id = id;
  t.origin = origin;
  t.arrival = now;
  t.length = sim::seconds(1.0);
  t.deadline = now + sim::seconds(100);
  t.ops = std::move(ops);
  return t;
}

SystemConfig cfg2(bool events = true) {
  SystemConfig cfg;
  cfg.num_clients = 2;
  cfg.warm_start = false;
  cfg.workload.db_size = 50;
  cfg.workload.region_size = 5;
  cfg.ls = LsOptions::none();
  cfg.telemetry.events = events;
  return cfg;
}

bool has_event(const obs::Telemetry& tel, EventKind kind,
               TxnId txn = kInvalidTxn, ObjectId object = ObjectId{}) {
  for (const auto& e : tel.events()) {
    if (e.kind != kind) continue;
    if (txn != kInvalidTxn && e.txn != txn) continue;
    if (object != ObjectId{} && e.object != object) continue;
    return true;
  }
  return false;
}

TEST(TraceIntegration, GrantRecallCommitSequenceRecorded) {
  ClientServerSystem sys(cfg2());
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      mk(TxnId{1}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  sys.client(ClientId{2}).on_new_transaction(
      mk(TxnId{2}, SiteId{2}, sim::SimTime{30}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{80});

  const auto& tel = sys.telemetry();
  EXPECT_TRUE(has_event(tel, EventKind::kLockGrant, kInvalidTxn, ObjectId{7}));
  EXPECT_TRUE(
      has_event(tel, EventKind::kLockRecall, kInvalidTxn, ObjectId{7}));
  EXPECT_TRUE(has_event(tel, EventKind::kTxnCommit, TxnId{1}));
  EXPECT_TRUE(has_event(tel, EventKind::kTxnCommit, TxnId{2}));

  // The recall of txn 1's exclusive copy comes after the grant that gave
  // it out, and txn 2 commits only after that recall.
  std::size_t grant = 0, recall = 0, commit2 = 0;
  const auto& ev = tel.events();
  for (std::size_t i = ev.size(); i-- > 0;) {
    if (ev[i].object == ObjectId{7} && ev[i].kind == EventKind::kLockGrant) {
      grant = i;
    }
    if (ev[i].object == ObjectId{7} && ev[i].kind == EventKind::kLockRecall) {
      recall = i;
    }
    if (ev[i].txn == TxnId{2} && ev[i].kind == EventKind::kTxnCommit) {
      commit2 = i;
    }
  }
  EXPECT_LT(grant, recall);
  EXPECT_LT(recall, commit2);
}

TEST(TraceIntegration, DisabledTraceStaysEmpty) {
  ClientServerSystem sys(cfg2(/*events=*/false));
  sys.bootstrap();
  sys.client(ClientId{1}).on_new_transaction(
      mk(TxnId{1}, SiteId{1}, sim::SimTime{0}, {{ObjectId{7}, true}}));
  sys.simulator().run_until(sim::SimTime{30});
  EXPECT_TRUE(sys.telemetry().events().empty());
}

TEST(TraceIntegration, EventsAreTimeOrdered) {
  ClientServerSystem sys(cfg2());
  sys.bootstrap();
  for (TxnId id{1}; id <= TxnId{6}; ++id) {
    const auto slot = static_cast<ClientId::Rep>(1 + (id.value() % 2));
    sys.client(ClientId{slot}).on_new_transaction(
        mk(id, SiteId{static_cast<SiteId::Rep>(slot)},
           sim::SimTime{static_cast<double>(id.value())},
           {{ObjectId{7}, true}}));
  }
  sys.simulator().run_until(sim::SimTime{300});
  const auto& ev = sys.telemetry().events();
  ASSERT_GT(ev.size(), 4u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].t, ev[i].t);
  }
}

TEST(TraceIntegration, SpecClaimsFollowLaunchesAndGrantOnce) {
  SystemConfig cfg = SystemConfig::paper_defaults(20.0);
  cfg.num_clients = 20;
  cfg.warmup = sim::seconds(40);
  cfg.duration = sim::seconds(200);
  cfg.drain = sim::seconds(200);
  cfg.seed = 555;
  cfg.ls = LsOptions::all();
  cfg.ls.enable_speculation = true;
  cfg.telemetry.events = true;
  ClientServerSystem sys(cfg);
  const auto m = sys.run();
  ASSERT_GT(m.spec_launched, 0u);
  ASSERT_EQ(sys.telemetry().events_dropped(), 0u);

  std::map<TxnId, int> launched;
  std::map<TxnId, int> granted;
  std::size_t claims = 0;
  for (const auto& e : sys.telemetry().events()) {
    if (e.kind == EventKind::kSpecLaunch) ++launched[e.txn];
    if (e.kind != EventKind::kSpecClaim) continue;
    ++claims;
    EXPECT_GT(launched[e.txn], 0) << "claim for txn " << e.txn
                                  << " before any launch";
    EXPECT_TRUE(e.a == 0 || e.a == 1);
    if (e.b == 1) ++granted[e.txn];
  }
  EXPECT_GT(claims, 0u);
  for (const auto& [txn, n] : granted) {
    EXPECT_LE(n, 1) << "txn " << txn << " granted " << n << " claims";
  }
}

}  // namespace
}  // namespace rtdb::core
