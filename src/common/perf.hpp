#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// \file perf.hpp
/// Performance-observability primitives: monotonic counters and scoped
/// section timers that every subsystem (sim, net, lock, txn, obs) can
/// instrument its hot paths with. This is the *primitive* layer — it lives
/// in common/ because the subsystem DAG forbids sim/net/lock from including
/// obs; the reporting layer (text/JSON summaries, the audited wall-clock
/// seam) is src/obs/perf.hpp.
///
/// Three cost tiers, mirroring the RTDB_CHECK assertion tiers:
///
///  * `RTDB_PERF=0` (compile flag / -DRTDB_PERF_COUNTERS=OFF) — every macro
///    expands to a no-op statement; the instrumentation vanishes entirely.
///    tests/common/perf_compiled_out_test.cpp proves the expansion is a
///    constant expression, i.e. touches no runtime state at all.
///  * counters (default) — always on. One relaxed single-threaded increment
///    of a process-global cell per event; cheap enough for the hottest
///    paths (EventQueue push/pop, Network::send).
///  * section timers — runtime-gated. Disabled (the default) they cost one
///    branch; enabled they read the installed wall clock twice per scope.
///    Only perfbench's traced pass, `rtdbctl --perf-report` and rtdb_verify's
///    passivity proof arm them.
///
/// Passivity contract (proven by `rtdb_verify --mode perf`): counters and
/// timers are write-only with respect to the simulation — no simulation
/// code path ever reads them, so enabling or compiling them out cannot
/// change a run's determinism digest.

#ifndef RTDB_PERF
#define RTDB_PERF 1
#endif

namespace rtdb::perf {

/// Monotonic event counters, grouped by owning subsystem. The enumerator
/// order is the JSON/report emission order; names (see to_string) are
/// stable schema keys — append, never reorder or rename.
enum class Counter : std::uint8_t {
  // sim — EventQueue / Simulator
  kSimEventsScheduled = 0,  ///< EventQueue::schedule calls
  kSimEventsFired,          ///< events dispatched by Simulator
  kSimEventsCancelled,      ///< successful EventQueue::cancel calls
  kSimDeadHeadDrops,        ///< lazily purged cancelled heap entries
  // net — Network
  kNetMessages,       ///< counted wire messages (non-loopback sends)
  kNetBytes,          ///< frame bytes across the wire
  kNetLoopbackSends,  ///< same-site sends (scheduling epsilon only)
  kNetBatchSends,     ///< send_batch logical batches
  // lock — GlobalLockTable
  kGltGrants,           ///< add_holder calls (grants + upgrades)
  kGltReleases,         ///< remove_holder calls that dropped a hold
  kGltConflictScans,    ///< holder-vector compatibility scans
  kGltLocationQueries,  ///< location_of calls
  // lock — ForwardList
  kFwdListInserts,       ///< ForwardList::add calls
  kFwdListPops,          ///< entries served by pop_next
  kFwdListExpiredDrops,  ///< expired entries dropped on pop/peek
  // lock — WaitForGraph
  kWfgCycleChecks,   ///< would_deadlock / try_add_edges admission tests
  kWfgEdgesAdded,    ///< edge justifications added
  kWfgNodesRemoved,  ///< remove_node calls
  // txn — EdfQueue
  kEdfPushes,  ///< EdfQueue::push calls
  kEdfPops,    ///< entries popped (ready, expired or unconditional)
  // obs — Telemetry self-report
  kTelSpanOps,         ///< span lifecycle calls that touched a span map
  kTelEventsRecorded,  ///< typed events recorded
  kTelSamples,         ///< gauge samples recorded
  kCounterCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCounterCount);

/// Timed sections — the subsystem entry points the ROADMAP names as the
/// suspected hot paths. Scoped timers nest freely; a nested section's time
/// is *also* attributed to every enclosing section (self-time is not
/// subtracted — see docs/observability.md).
enum class Section : std::uint8_t {
  kSimSchedule = 0,  ///< EventQueue::schedule (heap push)
  kSimPop,           ///< EventQueue::pop (heap pop + dead-head purge)
  kNetSend,          ///< Network::send_raw (wire model + fault seam)
  kGltQuery,         ///< GlobalLockTable conflict scans (H2's territory)
  kWfgCycleCheck,    ///< WaitForGraph deadlock admission DFS
  kFwdList,          ///< ForwardList insert/pop
  kEdfQueue,         ///< EdfQueue push/pop
  kTelemetry,        ///< Telemetry span/event/sample recording
  kSectionCount,
};

inline constexpr std::size_t kSectionCount =
    static_cast<std::size_t>(Section::kSectionCount);

/// Stable report/schema key of a counter (snake_case, subsystem-prefixed).
constexpr const char* to_string(Counter c) {
  switch (c) {
    case Counter::kSimEventsScheduled: return "sim_events_scheduled";
    case Counter::kSimEventsFired: return "sim_events_fired";
    case Counter::kSimEventsCancelled: return "sim_events_cancelled";
    case Counter::kSimDeadHeadDrops: return "sim_dead_head_drops";
    case Counter::kNetMessages: return "net_messages";
    case Counter::kNetBytes: return "net_bytes";
    case Counter::kNetLoopbackSends: return "net_loopback_sends";
    case Counter::kNetBatchSends: return "net_batch_sends";
    case Counter::kGltGrants: return "glt_grants";
    case Counter::kGltReleases: return "glt_releases";
    case Counter::kGltConflictScans: return "glt_conflict_scans";
    case Counter::kGltLocationQueries: return "glt_location_queries";
    case Counter::kFwdListInserts: return "fwd_list_inserts";
    case Counter::kFwdListPops: return "fwd_list_pops";
    case Counter::kFwdListExpiredDrops: return "fwd_list_expired_drops";
    case Counter::kWfgCycleChecks: return "wfg_cycle_checks";
    case Counter::kWfgEdgesAdded: return "wfg_edges_added";
    case Counter::kWfgNodesRemoved: return "wfg_nodes_removed";
    case Counter::kEdfPushes: return "edf_pushes";
    case Counter::kEdfPops: return "edf_pops";
    case Counter::kTelSpanOps: return "tel_span_ops";
    case Counter::kTelEventsRecorded: return "tel_events_recorded";
    case Counter::kTelSamples: return "tel_samples";
    case Counter::kCounterCount: break;
  }
  return "unknown";
}

/// Stable report/schema key of a timed section.
constexpr const char* to_string(Section s) {
  switch (s) {
    case Section::kSimSchedule: return "sim_schedule";
    case Section::kSimPop: return "sim_pop";
    case Section::kNetSend: return "net_send";
    case Section::kGltQuery: return "glt_query";
    case Section::kWfgCycleCheck: return "wfg_cycle_check";
    case Section::kFwdList: return "fwd_list";
    case Section::kEdfQueue: return "edf_queue";
    case Section::kTelemetry: return "telemetry";
    case Section::kSectionCount: break;
  }
  return "unknown";
}

/// The subsystem a counter's figure belongs to (report grouping).
constexpr const char* subsystem_of(Counter c) {
  switch (c) {
    case Counter::kSimEventsScheduled:
    case Counter::kSimEventsFired:
    case Counter::kSimEventsCancelled:
    case Counter::kSimDeadHeadDrops: return "sim";
    case Counter::kNetMessages:
    case Counter::kNetBytes:
    case Counter::kNetLoopbackSends:
    case Counter::kNetBatchSends: return "net";
    case Counter::kGltGrants:
    case Counter::kGltReleases:
    case Counter::kGltConflictScans:
    case Counter::kGltLocationQueries:
    case Counter::kFwdListInserts:
    case Counter::kFwdListPops:
    case Counter::kFwdListExpiredDrops:
    case Counter::kWfgCycleChecks:
    case Counter::kWfgEdgesAdded:
    case Counter::kWfgNodesRemoved: return "lock";
    case Counter::kEdfPushes:
    case Counter::kEdfPops: return "txn";
    case Counter::kTelSpanOps:
    case Counter::kTelEventsRecorded:
    case Counter::kTelSamples: return "obs";
    case Counter::kCounterCount: break;
  }
  return "unknown";
}

/// The subsystem a timed section belongs to (wall-time attribution).
constexpr const char* subsystem_of(Section s) {
  switch (s) {
    case Section::kSimSchedule:
    case Section::kSimPop: return "sim";
    case Section::kNetSend: return "net";
    case Section::kGltQuery:
    case Section::kWfgCycleCheck:
    case Section::kFwdList: return "lock";
    case Section::kEdfQueue: return "txn";
    case Section::kTelemetry: return "obs";
    case Section::kSectionCount: break;
  }
  return "unknown";
}

/// Allocation-attribution scopes. Subsystem entry points mark themselves
/// with RTDB_PERF_ALLOC_SCOPE so a counting allocator (perfbench/census.cpp
/// and tests/alloc replace global operator new in their own TUs) can bucket
/// every heap allocation by the subsystem that was on the stack. Always-on
/// — one byte store on entry and exit — because the census must not depend
/// on the runtime-gated section timers being armed. Like the counters, the
/// scope cell is write-only for the simulation itself: nothing in src/
/// reads it, so it cannot affect determinism.
enum class AllocScopeId : std::uint8_t {
  kSim = 0,
  kNet,
  kLock,
  kTxn,
  kObs,
  kNone,  ///< no tagged subsystem on the stack (protocol/core code)
};

/// Number of *tagged* scopes (excludes kNone).
inline constexpr std::size_t kAllocScopeCount = 5;

constexpr const char* to_string(AllocScopeId s) {
  switch (s) {
    case AllocScopeId::kSim: return "sim";
    case AllocScopeId::kNet: return "net";
    case AllocScopeId::kLock: return "lock";
    case AllocScopeId::kTxn: return "txn";
    case AllocScopeId::kObs: return "obs";
    case AllocScopeId::kNone: break;
  }
  return "untagged";
}

namespace detail {

/// Clock signature: monotonic nanoseconds. Installed by the reporting
/// layer (obs::perf_enable_timing routes it through the one audited
/// obs::WallClock seam); tests install deterministic fakes.
using ClockFn = std::uint64_t (*)();

/// The process-global registry. Deliberately global mutable state (the
/// only kind instrumentation this cheap can use): it is write-only with
/// respect to the simulation — nothing in src/ ever branches on a counter
/// or timer value — so it cannot break determinism, and the multi-server
/// refactor can keep it (perf cells are per-process diagnostics, not
/// simulation state). Inline variable: one instance across all TUs.
struct Registry {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kSectionCount> section_ns{};
  std::array<std::uint64_t, kSectionCount> section_hits{};
  ClockFn clock = nullptr;
  bool timing = false;
  AllocScopeId alloc_scope = AllocScopeId::kNone;
};

// rtdb-lint: allow(mutable-static) the process-wide perf registry is the
// audited observability seam; the sharding PR gives each shard its own
inline Registry g_registry{};

constexpr std::size_t idx(Counter c) { return static_cast<std::size_t>(c); }
constexpr std::size_t idx(Section s) { return static_cast<std::size_t>(s); }

}  // namespace detail

/// Increment / bulk-add entry points the macros expand to. Callable
/// directly (the macros are preferred: they compile out under RTDB_PERF=0).
inline void count(Counter c) { ++detail::g_registry.counters[detail::idx(c)]; }
inline void add(Counter c, std::uint64_t n) {
  detail::g_registry.counters[detail::idx(c)] += n;
}

[[nodiscard]] inline std::uint64_t counter_value(Counter c) {
  return detail::g_registry.counters[detail::idx(c)];
}
[[nodiscard]] inline std::uint64_t section_ns(Section s) {
  return detail::g_registry.section_ns[detail::idx(s)];
}
[[nodiscard]] inline std::uint64_t section_hits(Section s) {
  return detail::g_registry.section_hits[detail::idx(s)];
}
[[nodiscard]] inline bool timing_enabled() {
  return detail::g_registry.timing;
}

/// The innermost tagged subsystem on the current call stack (kNone outside
/// every tagged scope). Read by counting allocators; never by src/ code.
[[nodiscard]] inline AllocScopeId alloc_scope() {
  return detail::g_registry.alloc_scope;
}

/// Arms/disarms section timing. `clock` must be non-null when arming;
/// obs::perf_enable_timing passes the audited WallClock seam, unit tests
/// pass deterministic fakes.
inline void set_timing(bool on, detail::ClockFn clock = nullptr) {
  detail::g_registry.timing = on && clock != nullptr;
  detail::g_registry.clock = clock;
}

/// Zeroes every counter and section accumulator (timing arm state is kept).
/// Harnesses call this at measurement boundaries.
inline void reset() {
  detail::g_registry.counters.fill(0);
  detail::g_registry.section_ns.fill(0);
  detail::g_registry.section_hits.fill(0);
}

/// A copy of the registry's accumulators at one instant.
struct Snapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kSectionCount> section_ns{};
  std::array<std::uint64_t, kSectionCount> section_hits{};

  [[nodiscard]] std::uint64_t counter(Counter c) const {
    return counters[detail::idx(c)];
  }
  [[nodiscard]] std::uint64_t ns(Section s) const {
    return section_ns[detail::idx(s)];
  }
  [[nodiscard]] std::uint64_t hits(Section s) const {
    return section_hits[detail::idx(s)];
  }
};

[[nodiscard]] inline Snapshot snapshot() {
  Snapshot s;
  s.counters = detail::g_registry.counters;
  s.section_ns = detail::g_registry.section_ns;
  s.section_hits = detail::g_registry.section_hits;
  return s;
}

/// RAII section timer. Disarmed (timing off) construction and destruction
/// cost one branch each; armed, each costs one clock read. The class is
/// always defined (API parity across RTDB_PERF settings) — only the
/// RTDB_PERF_TIMER macro's willingness to instantiate it changes.
class ScopedTimer {
 public:
  explicit ScopedTimer(Section s) {
    if (!detail::g_registry.timing) return;
    section_ = s;
    start_ = detail::g_registry.clock();
    armed_ = true;
  }
  ~ScopedTimer() {
    if (!armed_) return;
    auto& r = detail::g_registry;
    // Disarmed mid-scope (set_timing(false) between ctor and dtor): the
    // clock may be gone; drop the sample.
    if (!r.timing) return;
    r.section_ns[detail::idx(section_)] += r.clock() - start_;
    ++r.section_hits[detail::idx(section_)];
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Section section_{};
  std::uint64_t start_ = 0;
  bool armed_ = false;
};

/// RAII allocation-attribution scope: tags allocations made while it lives
/// with a subsystem (see AllocScopeId). Nesting is innermost-wins, restored
/// on exit. Unconditional — two byte stores per scope — so the census works
/// without arming the timers.
class AllocScope {
 public:
  explicit AllocScope(AllocScopeId s) : prev_(detail::g_registry.alloc_scope) {
    detail::g_registry.alloc_scope = s;
  }
  ~AllocScope() { detail::g_registry.alloc_scope = prev_; }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  AllocScopeId prev_;
};

}  // namespace rtdb::perf

// The instrumentation macros. Call sites use these (never the functions
// directly) so -DRTDB_PERF=0 erases the whole layer.
#if RTDB_PERF
#define RTDB_PERF_CAT2(a, b) a##b
#define RTDB_PERF_CAT(a, b) RTDB_PERF_CAT2(a, b)
#define RTDB_PERF_COUNT(counter) \
  ::rtdb::perf::count(::rtdb::perf::Counter::counter)
#define RTDB_PERF_ADD(counter, n) \
  ::rtdb::perf::add(::rtdb::perf::Counter::counter, (n))
#define RTDB_PERF_TIMER(section)                            \
  ::rtdb::perf::ScopedTimer RTDB_PERF_CAT(rtdb_perf_timer_, \
                                          __LINE__) {       \
    ::rtdb::perf::Section::section                          \
  }
#define RTDB_PERF_ALLOC_SCOPE(scope)                            \
  ::rtdb::perf::AllocScope RTDB_PERF_CAT(rtdb_perf_alloc_,     \
                                         __LINE__) {           \
    ::rtdb::perf::AllocScopeId::scope                          \
  }
#else
#define RTDB_PERF_COUNT(counter) ((void)0)
#define RTDB_PERF_ADD(counter, n) ((void)0)
#define RTDB_PERF_TIMER(section) ((void)0)
#define RTDB_PERF_ALLOC_SCOPE(scope) ((void)0)
#endif
