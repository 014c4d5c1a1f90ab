/// \file outcome_reconciliation_test.cpp
/// The typed event stream and the outcome ledger tell the same story: every
/// admitted transaction ends in at most one txn_commit/txn_miss/txn_abort
/// event, and over the measured transactions those events add up to
/// RunMetrics. The runs cover the paths whose outcome is resolved away
/// from the executing site — decomposed originals (LS), speculation races
/// and transactions killed by a client crash (CS).

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/client_server.hpp"

namespace rtdb::core {
namespace {

using obs::EventKind;

SystemConfig recon_cfg(bool load_sharing) {
  SystemConfig cfg;
  cfg.ls = load_sharing ? LsOptions::all() : LsOptions::none();
  cfg.num_clients = 40;
  cfg.workload.update_fraction = 0.05;
  cfg.warmup = sim::seconds(300);
  cfg.duration = sim::seconds(600);
  cfg.seed = 42;
  cfg.telemetry.spans = true;
  cfg.telemetry.events = true;
  return cfg;
}

struct Tally {
  std::uint64_t commits = 0;
  std::uint64_t misses = 0;
  std::uint64_t aborts = 0;
  std::uint64_t stragglers = 0;  ///< measured, never resolved (span open)
};

/// Folds the event stream per transaction, checks the per-id invariants,
/// and tallies the measured transactions' terminal events.
Tally reconcile(const System& sys) {
  const obs::Telemetry& tel = sys.telemetry();
  EXPECT_EQ(tel.events_dropped(), 0u);

  std::map<TxnId, bool> admitted;  // id -> measured
  std::map<TxnId, std::vector<EventKind>> terminal;
  for (const obs::Event& e : tel.events()) {
    switch (e.kind) {
      case EventKind::kTxnAdmit:
        // Admission happens at arrival, so the event instant decides
        // whether the transaction is measured.
        admitted[e.txn] = e.t >= sys.config().measure_start() &&
                          e.t < sys.config().measure_end();
        break;
      case EventKind::kTxnCommit:
      case EventKind::kTxnMiss:
      case EventKind::kTxnAbort:
        terminal[e.txn].push_back(e.kind);
        break;
      default:
        break;
    }
  }
  for (const auto& [id, kinds] : terminal) {
    EXPECT_EQ(admitted.count(id), 1u)
        << "terminal event for txn " << id << " that was never admitted";
    EXPECT_EQ(kinds.size(), 1u) << "txn " << id << " has " << kinds.size()
                                << " terminal events";
  }

  std::map<TxnId, obs::Outcome> span_outcome;
  for (const obs::TxnSpan* s : tel.spans_sorted()) {
    span_outcome[s->id] = s->outcome;
  }
  Tally tally;
  for (const auto& [id, measured] : admitted) {
    if (!measured) continue;
    const auto it = terminal.find(id);
    if (it == terminal.end()) {
      EXPECT_EQ(span_outcome[id], obs::Outcome::kOpen)
          << "txn " << id << " was resolved ("
          << obs::to_string(span_outcome[id]) << ") without a terminal event";
      ++tally.stragglers;
      continue;
    }
    switch (it->second.front()) {
      case EventKind::kTxnCommit:
        ++tally.commits;
        break;
      case EventKind::kTxnMiss:
        ++tally.misses;
        break;
      default:
        ++tally.aborts;
        break;
    }
  }
  return tally;
}

void expect_reconciled(const System& sys, const RunMetrics& m) {
  const Tally tally = reconcile(sys);
  EXPECT_EQ(tally.commits, m.committed);
  EXPECT_EQ(tally.aborts, m.aborted);
  EXPECT_EQ(tally.misses + tally.stragglers, m.missed);
  EXPECT_EQ(tally.commits + tally.misses + tally.aborts + tally.stragglers,
            m.generated);
  EXPECT_EQ(sys.double_records(), 0u);
}

TEST(OutcomeReconciliation, DecomposedOriginalsEndInOneEvent) {
  ClientServerSystem sys(recon_cfg(/*load_sharing=*/true));
  const RunMetrics m = sys.run();
  ASSERT_GT(m.decomposed_txns, 0u) << "the run must exercise decomposition";
  expect_reconciled(sys, m);
}

TEST(OutcomeReconciliation, SpeculationRacesEndInOneEvent) {
  // Both racing copies finish somewhere; only the arbitration record at
  // the origin resolves the original.
  SystemConfig cfg = recon_cfg(/*load_sharing=*/true);
  cfg.ls.enable_speculation = true;
  cfg.workload.update_fraction = 0.20;
  ClientServerSystem sys(cfg);
  const RunMetrics m = sys.run();
  ASSERT_GT(m.spec_launched, 0u) << "the run must exercise speculation";
  expect_reconciled(sys, m);
}

TEST(OutcomeReconciliation, CrashKilledTransactionsEndInOneEvent) {
  SystemConfig cfg = recon_cfg(/*load_sharing=*/false);
  cfg.fault.crashes.push_back(
      {ClientId{3}, sim::SimTime{300}, sim::SimTime{500}});
  cfg.fault.crashes.push_back(
      {ClientId{7}, sim::SimTime{350}, sim::SimTime{600}});
  cfg.fault.crashes.push_back(
      {ClientId{11}, sim::SimTime{400}, sim::SimTime{450}});
  ClientServerSystem sys(cfg);
  const RunMetrics m = sys.run();
  ASSERT_NE(sys.injector(), nullptr);
  ASSERT_EQ(sys.injector()->stats().crashes, 3u);
  expect_reconciled(sys, m);
}

}  // namespace
}  // namespace rtdb::core
