/// \file static_checks.cpp
/// Compile-time proofs of the strong-typing layer: if this TU builds, the
/// id/time/message type rules hold. The *negative* side — code that must
/// NOT compile (cross-id assignment, Tick + Tick, a wrong-direction send)
/// — lives in tests/common/noncompile/, built as expected-failure compile
/// targets (ctest WILL_FAIL); positive rules that are expressible as
/// requires-clauses are also asserted here so a single build catches most
/// regressions without running the noncompile matrix.

#include <gtest/gtest.h>

#include <type_traits>
#include <unordered_map>

#include "common/strong_id.hpp"
#include "common/strong_time.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"

namespace rtdb {
namespace {

// --- ids are zero-cost and non-interconvertible -----------------------------

static_assert(sizeof(SiteId) == sizeof(std::int32_t));
static_assert(sizeof(ClientId) == sizeof(std::int32_t));
static_assert(sizeof(ObjectId) == sizeof(std::uint32_t));
static_assert(sizeof(TxnId) == sizeof(std::uint64_t));
static_assert(sizeof(PageId) == sizeof(std::uint32_t));

static_assert(std::is_trivially_copyable_v<SiteId>);
static_assert(std::is_trivially_copyable_v<TxnId>);
static_assert(std::is_trivially_copyable_v<sim::SimTime>);
static_assert(std::is_trivially_copyable_v<sim::Duration>);

// No implicit construction from the representation...
static_assert(!std::is_convertible_v<int, SiteId>);
static_assert(!std::is_convertible_v<std::uint32_t, ObjectId>);
static_assert(!std::is_convertible_v<double, sim::SimTime>);
static_assert(!std::is_convertible_v<double, sim::Duration>);
// ...no conversion back out...
static_assert(!std::is_convertible_v<SiteId, int>);
static_assert(!std::is_convertible_v<sim::SimTime, double>);
// ...and no cross-id bridge in either direction, even though SiteId and
// ClientId share a representation.
static_assert(!std::is_convertible_v<SiteId, ClientId>);
static_assert(!std::is_convertible_v<ClientId, SiteId>);
static_assert(!std::is_assignable_v<SiteId&, ClientId>);
static_assert(!std::is_assignable_v<ClientId&, SiteId>);
static_assert(!std::is_constructible_v<TxnId, ObjectId>);
static_assert(!std::is_constructible_v<ObjectId, PageId>);

// Explicit, named conversions are the only bridge.
static_assert(site_of(ClientId{3}) == SiteId{3});
static_assert(client_of(SiteId{3}) == ClientId{3});

// Ids are constexpr-usable and hashable (unordered_map keys throughout).
static_assert(SiteId{2}.value() == 2);
static_assert(ObjectId{7} < ObjectId{8});
static_assert(std::is_default_constructible_v<std::hash<TxnId>>);
static_assert(std::is_default_constructible_v<std::hash<ObjectId>>);

// --- time arithmetic is dimension-checked ----------------------------------

// Legal combinations exist...
static_assert(requires(Tick t, Duration d) { { t + d } -> std::same_as<Tick>; });
static_assert(requires(Tick t, Duration d) { { t - d } -> std::same_as<Tick>; });
static_assert(requires(Tick a, Tick b) { { a - b } -> std::same_as<Duration>; });
static_assert(requires(Duration a, Duration b) {
  { a + b } -> std::same_as<Duration>;
  { a / b } -> std::same_as<double>;
});
static_assert(requires(Duration d) { { d * 2.0 } -> std::same_as<Duration>; });
// ...and the dimensionally wrong ones do not. (Variable templates keep the
// ill-formed expressions in a dependent context, where a requires-expression
// yields false instead of a hard error.)
template <typename A, typename B>
constexpr bool can_add = requires(A a, B b) { a + b; };
template <typename A, typename B>
constexpr bool can_sub = requires(A a, B b) { a - b; };
template <typename A, typename B>
constexpr bool can_mul = requires(A a, B b) { a* b; };
template <typename A, typename B>
constexpr bool can_assign = requires(A& a, B b) { a = b; };

static_assert(!can_add<Tick, Tick>);
static_assert(!can_mul<Tick, double>);
static_assert(!can_sub<Duration, Tick>);
static_assert(!can_assign<Tick, Duration>);
static_assert(!can_assign<Duration, Tick>);

static_assert(Tick::zero() + sim::seconds(2.0) == Tick{2.0});
static_assert((Tick{5.0} - Tick{3.0}).sec() == 2.0);
static_assert(!Tick::infinity().finite());

// --- message typestate ------------------------------------------------------

using net::Direction;
using net::Endpoint;
using net::MessageKind;

static_assert(net::direction_of(MessageKind::kObjectRequest).src ==
              Endpoint::kClient);
static_assert(net::direction_of(MessageKind::kObjectRequest).dst ==
              Endpoint::kServer);
static_assert(net::direction_of(MessageKind::kObjectShip).src ==
              Endpoint::kServer);
static_assert(net::direction_of(MessageKind::kObjectForward).src ==
              Endpoint::kClient);
static_assert(net::direction_of(MessageKind::kObjectForward).dst ==
              Endpoint::kClient);
static_assert(net::direction_of(MessageKind::kTxnResult).src == Endpoint::kAny);
static_assert(net::direction_of(MessageKind::kControl).dst == Endpoint::kAny);

static_assert(net::endpoint_matches(Endpoint::kAny, Endpoint::kClient));
static_assert(net::endpoint_matches(Endpoint::kClient, Endpoint::kClient));
static_assert(!net::endpoint_matches(Endpoint::kClient, Endpoint::kServer));

// A runtime smoke so the TU registers at least one test (and the asserts
// above demonstrably ran through a real gtest binary).
TEST(StaticChecks, CompileTimeRulesHold) { SUCCEED(); }

}  // namespace
}  // namespace rtdb
