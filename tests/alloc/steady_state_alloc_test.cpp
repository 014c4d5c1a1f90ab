/// \file steady_state_alloc_test.cpp
/// Allocation budget of the CS and LS object-access path. This executable
/// replaces the global operator new with one that counts each allocation
/// under the subsystem tag on the stack (perf::alloc_scope(), the
/// RTDB_PERF_ALLOC_SCOPE tags), runs short CS and LS simulations, and pins
/// the allocations per measured transaction in the lock scope and in the
/// untagged protocol code (client and server nodes, storage, workload).
///
/// Every per-object step of those paths is meant to run allocation-free in
/// steady state: holders inline in the lock tables' per-object states,
/// reused scratch vectors, slab-allocated transaction records. What is left
/// is mostly per transaction (its operations, needs and request batches,
/// the local lock manager's per-transaction sets). A node allocation per
/// object step creeping back in (an unordered container on the grant path,
/// a copied set, a vector built per probe) adds ~10 blocks per transaction
/// (a transaction touches ~10 objects) and trips the budgets.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/perf.hpp"
#include "core/runner.hpp"

namespace {

using rtdb::perf::AllocScopeId;

constexpr std::size_t kBuckets = rtdb::perf::kAllocScopeCount + 1;
using Counts = std::array<std::uint64_t, kBuckets>;

// Namespace-scope cells: the replaced global allocator has no object to
// live in, and the simulation is single-threaded.
Counts g_counts{};

}  // namespace

// The replacements pair malloc with free on purpose; GCC cannot see that
// every pointer these deletes receive came from the malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++g_counts[static_cast<std::size_t>(rtdb::perf::alloc_scope())];
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtdb::core {
namespace {

struct PerTxn {
  double lock = 0;
  double untagged = 0;
};

/// Allocations and measured transactions of one run, construction and
/// teardown included.
struct Tally {
  Counts allocs{};
  std::uint64_t txns = 0;
};

Tally run(SystemKind kind, const SystemConfig& cfg) {
  const Counts before = g_counts;
  RunMetrics m;
  {
    auto sys = make_system(kind, cfg);
    m = sys->run();
  }
  EXPECT_TRUE(m.accounted());
  Tally t;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    t.allocs[b] = g_counts[b] - before[b];
  }
  t.txns = m.generated;
  return t;
}

/// Steady-state allocations per transaction: the difference between a
/// long and a short run of the same configuration over the difference in
/// measured transactions. Set-up (tables sized to the database, pools
/// warming up) cancels out; what is left is what each transaction costs.
PerTxn measure(SystemKind kind, SystemConfig cfg) {
  cfg.duration = sim::seconds(150);
  const Tally short_run = run(kind, cfg);
  cfg.duration = sim::seconds(450);
  const Tally long_run = run(kind, cfg);
  EXPECT_GT(long_run.txns, short_run.txns + 1000);
  const auto per = [&](AllocScopeId s) {
    const auto b = static_cast<std::size_t>(s);
    return static_cast<double>(long_run.allocs[b] - short_run.allocs[b]) /
           static_cast<double>(long_run.txns - short_run.txns);
  };
  return {per(AllocScopeId::kLock), per(AllocScopeId::kNone)};
}

/// The benchmark's two read workloads, shortened: the paper's database with
/// per-client regions, and uniform access over a database a hundred times
/// the caches.
SystemConfig config(bool uniform) {
  SystemConfig cfg = SystemConfig::paper_defaults(1.0);
  cfg.num_clients = 40;
  cfg.warmup = sim::seconds(100);
  cfg.drain = sim::seconds(100);
  cfg.seed = 11;
  if (uniform) {
    cfg.workload.db_size = 100'000;
    cfg.workload.locality = 0.0;
    cfg.workload.zipf_theta = 0.0;
  }
  return cfg;
}

struct Budget {
  SystemKind kind;
  bool uniform;
  double lock;      ///< lock-scope allocations per measured transaction
  double untagged;  ///< untagged (protocol) allocations per transaction
};

TEST(SteadyStateAllocations, CsAndLsObjectPathsStayWithinBudget) {
  // Steady-state allocations per transaction (lock, untagged) when pinned
  // — deterministic for a fixed seed, so the headroom is for honest small
  // changes, not noise:
  //   CS 13.4,  9.0   uniform 20.6, 17.7
  //   LS 13.5,  9.7   uniform 21.1, 19.0
  // With a node allocation per object step (per-client reverse index,
  // holder vectors, copied per-transaction sets, node-based transaction
  // tables and awaiting sets) the same runs cost:
  //   CS 34.2, 21.2   uniform 41.5, 51.0
  //   LS 34.4, 21.5   uniform 42.8, 52.9
  const Budget budgets[] = {
      {SystemKind::kClientServer, false, 18, 14},
      {SystemKind::kClientServer, true, 26, 25},
      {SystemKind::kLoadSharing, false, 18, 14},
      {SystemKind::kLoadSharing, true, 26, 25},
  };
  for (const Budget& b : budgets) {
    const PerTxn got = measure(b.kind, config(b.uniform));
    const char* name = b.kind == SystemKind::kClientServer ? "cs" : "ls";
    EXPECT_LE(got.lock, b.lock)
        << name << (b.uniform ? " uniform" : " paper") << ": " << got.lock
        << " lock allocations per transaction";
    EXPECT_LE(got.untagged, b.untagged)
        << name << (b.uniform ? " uniform" : " paper") << ": " << got.untagged
        << " untagged allocations per transaction";
    std::printf("%s %s lock=%.2f untagged=%.2f\n", name,
                b.uniform ? "uniform" : "paper", got.lock, got.untagged);
  }
}

}  // namespace
}  // namespace rtdb::core
