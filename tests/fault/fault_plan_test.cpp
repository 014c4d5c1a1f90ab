#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rtdb::fault {
namespace {

using sim::msec;
using sim::seconds;

sim::SimTime at(double s) { return sim::SimTime{} + seconds(s); }

TEST(FaultPlan, DefaultIsEmptyAndValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.validate(), "");
}

TEST(FaultPlan, ForceActiveMakesItNonEmpty) {
  FaultPlan plan;
  plan.force_active = true;
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.validate(), "");
}

TEST(FaultPlan, AnyProbabilityMakesItNonEmpty) {
  FaultPlan plan;
  plan.all_kinds.drop = 0.01;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, PerKindOverrideMakesItNonEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.set_kind(net::MessageKind::kLockGrant, {0.5, 0.0, 0.0});
  EXPECT_FALSE(plan.empty());
  // A no-op override keeps the plan empty: nothing can actually fire.
  FaultPlan noop;
  noop.set_kind(net::MessageKind::kLockGrant, {});
  EXPECT_TRUE(noop.empty());
}

TEST(FaultPlan, WindowsMakeItNonEmpty) {
  FaultPlan plan;
  plan.crashes.push_back({ClientId{1}, at(1), at(2)});
  EXPECT_FALSE(plan.empty());
  FaultPlan part;
  part.partitions.push_back({ClientId{1}, at(1), at(2)});
  EXPECT_FALSE(part.empty());
}

TEST(FaultPlan, ValidateRejectsBadProbabilities) {
  FaultPlan plan;
  plan.all_kinds.drop = -0.1;
  EXPECT_NE(plan.validate(), "");
  plan.all_kinds.drop = 1.5;
  EXPECT_NE(plan.validate(), "");
  plan.all_kinds.drop = 0.0;
  plan.set_kind(net::MessageKind::kObjectShip, {0.0, 2.0, 0.0});
  EXPECT_NE(plan.validate(), "");
}

TEST(FaultPlan, ValidateRejectsBadWindows) {
  FaultPlan plan;
  plan.partitions.push_back({kInvalidClient, at(1), at(2)});
  EXPECT_NE(plan.validate(), "");
  plan.partitions.clear();
  plan.partitions.push_back({ClientId{1}, at(2), at(1)});
  EXPECT_NE(plan.validate(), "");
  plan.partitions.clear();
  plan.crashes.push_back({ClientId{1}, at(2), at(2)});
  EXPECT_NE(plan.validate(), "");
}

TEST(FaultPlan, ValidateRejectsBadTimeouts) {
  FaultPlan plan;
  plan.request_timeout = sim::Duration::zero();
  EXPECT_NE(plan.validate(), "");
  plan.request_timeout = msec(400);
  plan.extra_delay = msec(0) - msec(1);
  EXPECT_NE(plan.validate(), "");
}

TEST(ChaosLibrary, EveryScheduleIsValid) {
  const sim::SimTime t0 = sim::SimTime{} + seconds(30);
  const sim::SimTime t1 = sim::SimTime{} + seconds(180);
  for (const auto name : chaos_schedule_names()) {
    const FaultPlan plan = make_chaos_plan(name, 16, t0, t1);
    EXPECT_EQ(plan.validate(), "") << name;
    EXPECT_FALSE(plan.empty()) << name;
    EXPECT_FALSE(describe(plan).empty()) << name;
  }
}

TEST(ChaosLibrary, NullActiveInjectsNothing) {
  const sim::SimTime t0 = sim::SimTime{} + seconds(30);
  const sim::SimTime t1 = sim::SimTime{} + seconds(180);
  const FaultPlan plan = make_chaos_plan("null-active", 16, t0, t1);
  EXPECT_TRUE(plan.force_active);
  EXPECT_FALSE(plan.all_kinds.any());
  EXPECT_TRUE(plan.partitions.empty());
  EXPECT_TRUE(plan.crashes.empty());
}

TEST(ChaosLibrary, WindowsLandInsideTheRun) {
  const sim::SimTime t0 = sim::SimTime{} + seconds(30);
  const sim::SimTime t1 = sim::SimTime{} + seconds(180);
  for (const auto name : chaos_schedule_names()) {
    const FaultPlan plan = make_chaos_plan(name, 16, t0, t1);
    for (const auto& w : plan.partitions) {
      EXPECT_GE(w.start, t0) << name;
      EXPECT_LE(w.end, t1) << name;
    }
    for (const auto& w : plan.crashes) {
      EXPECT_GE(w.start, t0) << name;
      if (w.end.finite()) {
        EXPECT_LE(w.end, t1) << name;
      }
    }
  }
}

TEST(ChaosLibrary, UnknownScheduleThrows) {
  EXPECT_THROW(make_chaos_plan("no-such-schedule", 16, sim::SimTime{},
                               sim::SimTime{} + seconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtdb::fault
