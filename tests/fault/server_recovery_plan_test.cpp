/// \file server_recovery_plan_test.cpp
/// Plan-level rules of the server crash/recovery machinery: the capability
/// gate, window well-formedness, the warm-standby effective end, and the
/// seeded outage jitter all client retries decorrelate with.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

namespace rtdb::fault {
namespace {

using sim::msec;
using sim::seconds;

sim::SimTime at(double s) { return sim::SimTime{} + seconds(s); }

FaultPlan crash_plan() {
  FaultPlan plan;
  plan.allow_server_crash = true;
  plan.server_crashes.push_back({at(10), at(12)});
  return plan;
}

TEST(ServerRecoveryPlan, ServerWindowsRequireCapabilityGate) {
  FaultPlan plan = crash_plan();
  EXPECT_EQ(plan.validate(), "");
  plan.allow_server_crash = false;
  EXPECT_NE(plan.validate(), "");
}

TEST(ServerRecoveryPlan, StandbyAndNoRecoveryRequireCapabilityGate) {
  FaultPlan standby;
  standby.warm_standby = true;
  EXPECT_NE(standby.validate(), "");
  FaultPlan broken;
  broken.recovery_disabled = true;
  EXPECT_NE(broken.validate(), "");
}

TEST(ServerRecoveryPlan, StandbyExcludesRecoveryDisabled) {
  FaultPlan plan = crash_plan();
  plan.warm_standby = true;
  plan.recovery_disabled = true;
  EXPECT_NE(plan.validate(), "");
  plan.recovery_disabled = false;
  EXPECT_EQ(plan.validate(), "");
}

TEST(ServerRecoveryPlan, WindowsMustBeSortedAndNonOverlapping) {
  FaultPlan inverted = crash_plan();
  inverted.server_crashes[0].end = at(9);
  EXPECT_NE(inverted.validate(), "");

  FaultPlan overlapping = crash_plan();
  overlapping.server_crashes.push_back({at(11), at(14)});
  EXPECT_NE(overlapping.validate(), "");

  FaultPlan sorted = crash_plan();
  sorted.server_crashes.push_back({at(20), at(22)});
  EXPECT_EQ(sorted.validate(), "");
}

TEST(ServerRecoveryPlan, ServerWindowsMakeThePlanNonEmpty) {
  EXPECT_FALSE(crash_plan().empty());
}

TEST(ServerRecoveryPlan, ServerDownTracksEffectiveWindows) {
  const FaultPlan plan = crash_plan();
  EXPECT_FALSE(plan.server_down(at(9.9)));
  EXPECT_TRUE(plan.server_down(at(10)));
  EXPECT_TRUE(plan.server_down(at(11.9)));
  EXPECT_FALSE(plan.server_down(at(12)));
  EXPECT_EQ(plan.server_restart_time(at(11)), at(12));
}

TEST(ServerRecoveryPlan, WarmStandbyMovesTheEffectiveEndUp) {
  FaultPlan plan = crash_plan();
  plan.warm_standby = true;
  plan.standby_failover = msec(50);
  // Failover ends the outage standby_failover after the crash, well before
  // the scheduled window end.
  EXPECT_TRUE(plan.server_down(at(10.01)));
  EXPECT_FALSE(plan.server_down(at(10.1)));
  EXPECT_EQ(plan.server_restart_time(at(10.01)), at(10) + msec(50));
}

TEST(ServerRecoveryPlan, OutageJitterIsDeterministicAndBounded) {
  const sim::Duration bound = msec(40);
  const sim::Duration a = outage_jitter(7, 123, 0, bound);
  EXPECT_EQ(a, outage_jitter(7, 123, 0, bound));
  EXPECT_GE(a, sim::Duration::zero());
  EXPECT_LT(a, bound);
  // Different salts / attempts decorrelate (the thundering-herd property).
  EXPECT_NE(outage_jitter(7, 123, 0, bound), outage_jitter(7, 124, 0, bound));
  EXPECT_NE(outage_jitter(7, 123, 0, bound), outage_jitter(7, 123, 1, bound));
  EXPECT_EQ(outage_jitter(7, 123, 0, sim::Duration::zero()),
            sim::Duration::zero());
}

TEST(ServerRecoveryPlan, OutageDelayWaitsOutTheOutagePlusJitter) {
  FaultInjector injector(crash_plan());
  const sim::Duration bound = injector.plan().outage_jitter_bound;
  // Inside the window: the gap to the projected restart, plus the jitter.
  EXPECT_EQ(injector.outage_delay(at(11), msec(500), 7, 123, 1),
            seconds(1) + outage_jitter(7, 123, 1, bound));
  // No restart ahead of `now`: the fallback timeout stands in for the gap.
  EXPECT_EQ(injector.outage_delay(at(20), msec(500), 7, 123, 2),
            msec(500) + outage_jitter(7, 123, 2, bound));
  EXPECT_EQ(injector.stats().outage_deferrals, 2u);
}

TEST(ServerRecoveryPlan, ServerChaosSchedulesResolveAndValidate) {
  const auto names = server_chaos_schedule_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "server-crash");
  EXPECT_EQ(names[1], "server-standby");
  EXPECT_EQ(names[2], "server-mixed");
  for (const auto n : names) {
    const FaultPlan plan = make_chaos_plan(n, 8, at(100), at(1100));
    EXPECT_EQ(plan.validate(), "") << n;
    EXPECT_TRUE(plan.allow_server_crash) << n;
    EXPECT_FALSE(plan.server_crashes.empty()) << n;
    EXPECT_EQ(plan.warm_standby, n == "server-standby") << n;
  }
  // Legacy schedules never gained the capability: their digests stay pinned.
  for (const auto n : chaos_schedule_names()) {
    EXPECT_FALSE(make_chaos_plan(n, 8, at(100), at(1100)).allow_server_crash)
        << n;
  }
}

}  // namespace
}  // namespace rtdb::fault
