/// \file perf_core.cpp
/// The performance-observability throughput harness (ROADMAP: "how fast is
/// the simulator itself?"). Drives all four prototypes (CE / CS / LS / OCC)
/// at fixed seeds over a client-count sweep and measures, per point:
///
///  * simulated-events/sec — the simulator's executed-event count over
///    wall-clock seconds, the headline throughput figure the CI gate tracks
///    (taken from the Simulator, so it holds with the perf counters
///    compiled out);
///  * wall-clock seconds (obs::WallClock, the one audited real-time seam);
///  * allocation pressure and the live-heap high-water mark, re-armed at
///    each point's start (a counting global operator new/delete in this TU
///    — bench/ may do that, src/ may not);
///  * the full perf counter catalog and per-subsystem section-time
///    attribution (sim / net / lock / txn / obs).
///
/// Output: a human table on stdout and `--out FILE` JSON (default
/// BENCH_perf_core.json — the committed copy at the repo root is the pinned
/// trajectory baseline scripts/perf_compare.py gates against):
///
///     { "bench": "perf_core", "schema_version": 1, "quick": <bool>,
///       "env": { "compiler": str, "assertions": bool,
///                "perf_compiled_in": bool, "pointer_bits": n },
///       "points": [ { "system": "ce|cs|ls|occ", "clients": n,
///                     "sim_seconds": s, "wall_s": s, "events": n,
///                     "events_per_sec": r, "generated": n, "committed": n,
///                     "messages": n, "peak_heap_kb": n, "alloc_count": n,
///                     "alloc_bytes": n,
///                     "alloc_by_subsystem": { "sim": {"count": n,
///                                                     "bytes": n}, ...,
///                                             "untagged": {...} },
///                     "counters": { <counter>: n, ... },
///                     "subsystem_ns": { "sim": n, ... },
///                     "sections": { <section>: {"ns": n, "hits": n},
///                                   ... } }, ... ] }
///
/// Counter values ("events", "generated", "committed", "messages",
/// "counters") are simulation facts — bit-identical on every machine and
/// across --quick/full for matching (system, clients) points, because each
/// point is an independent seeded run. Wall-clock, heap and allocation
/// figures are machine-local (peak_heap_kb counts allocator usable sizes,
/// informational and ungated). scripts/perf_compare.py knows the split:
/// --events-only (the ctest gate) compares only the deterministic facts;
/// full mode (CI perf-smoke) also gates events/sec regressions.

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/perf.hpp"
#include "core/runner.hpp"
#include "obs/perf.hpp"
#include "obs/wall_clock.hpp"

namespace {

// Allocation pressure counters, fed by the replaced global operator new
// below. Plain namespace-scope cells: the process is single-threaded.
// Buckets: one per tagged subsystem scope (see perf::AllocScopeId) plus a
// trailing "untagged" bucket for allocations outside every tagged scope.
constexpr std::size_t kAllocBuckets = rtdb::perf::kAllocScopeCount + 1;
// rtdb-lint: allow(mutable-static) operator-new census cells must be
// namespace-scope: the replaced global allocator has no object to live in
std::uint64_t g_alloc_count = 0;
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_bytes = 0;
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_count_by[kAllocBuckets] = {};
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
std::uint64_t g_alloc_bytes_by[kAllocBuckets] = {};
/// Live heap bytes (allocator usable sizes) and their high-water mark.
struct LiveHeap {
  std::uint64_t bytes = 0;
  std::uint64_t peak = 0;
};
// rtdb-lint: allow(mutable-static) same operator-new census seam as above
LiveHeap g_live;

void census_free(void* p) noexcept {
  if (p) g_live.bytes -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

// Counting allocator seams. Replacing global operator new is legitimate in
// a bench TU (the raw-new-delete lint rule covers src/ and tools/ only):
// every container the simulation touches funnels through here, giving an
// exact, deterministic-per-machine allocation census per run, attributed
// to the innermost RTDB_PERF_ALLOC_SCOPE on the stack at allocation time.
void* operator new(std::size_t n) {
  ++g_alloc_count;
  g_alloc_bytes += n;
  const auto scope = static_cast<std::size_t>(rtdb::perf::alloc_scope());
  ++g_alloc_count_by[scope];
  g_alloc_bytes_by[scope] += n;
  if (void* p = std::malloc(n ? n : 1)) {
    g_live.bytes += malloc_usable_size(p);
    g_live.peak = std::max(g_live.peak, g_live.bytes);
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { census_free(p); }
void operator delete[](void* p) noexcept { census_free(p); }
void operator delete(void* p, std::size_t) noexcept { census_free(p); }
void operator delete[](void* p, std::size_t) noexcept { census_free(p); }

namespace {

using namespace rtdb;

struct SystemUnderTest {
  const char* name;  // stable JSON key
  core::SystemKind kind;
};

constexpr SystemUnderTest kSystems[] = {
    {"ce", core::SystemKind::kCentralized},
    {"cs", core::SystemKind::kClientServer},
    {"ls", core::SystemKind::kLoadSharing},
    {"occ", core::SystemKind::kOptimistic},
};

/// Fixed per-point config. Deliberately NOT bench::experiment_config: the
/// throughput harness wants short runs (the CI smoke job runs the sweep on
/// every PR) and — crucially — identical configs in --quick and full mode,
/// so a quick point is byte-comparable against the committed full baseline.
core::SystemConfig perf_point_config(std::size_t clients) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(5.0);
  cfg.num_clients = clients;
  cfg.warmup = sim::seconds(100);
  // Long enough that each point takes O(100ms..1s) of wall time — a 30%
  // regression gate needs points well clear of scheduler noise.
  cfg.duration = sim::seconds(2000);
  cfg.drain = sim::seconds(300);
  cfg.seed = 42;
  return cfg;
}

constexpr double kSimSeconds = 2000.0;

std::vector<std::size_t> perf_client_counts(bool quick) {
  if (quick) return {10, 40};
  return {10, 40, 100};
}

/// One measured point.
struct Point {
  const char* system;
  std::size_t clients;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_heap_kb = 0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_count_by[kAllocBuckets] = {};
  std::uint64_t alloc_bytes_by[kAllocBuckets] = {};
  core::RunMetrics metrics;
  perf::Snapshot perf;

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

Point measure(const SystemUnderTest& sut, std::size_t clients) {
  Point p;
  p.system = sut.name;
  p.clients = clients;
  const auto cfg = perf_point_config(clients);

  perf::reset();
  obs::perf_enable_timing();
  const std::uint64_t allocs_before = g_alloc_count;
  const std::uint64_t bytes_before = g_alloc_bytes;
  std::uint64_t count_by_before[kAllocBuckets];
  std::uint64_t bytes_by_before[kAllocBuckets];
  std::memcpy(count_by_before, g_alloc_count_by, sizeof(count_by_before));
  std::memcpy(bytes_by_before, g_alloc_bytes_by, sizeof(bytes_by_before));
  g_live.peak = g_live.bytes;
  const double t0 = obs::WallClock::now_sec();
  {
    const auto sys = core::make_system(sut.kind, cfg);
    p.metrics = sys->run();
    p.events = sys->simulator().events_executed();
  }
  p.wall_s = obs::WallClock::now_sec() - t0;
  p.peak_heap_kb = g_live.peak / 1024;
  p.alloc_count = g_alloc_count - allocs_before;
  p.alloc_bytes = g_alloc_bytes - bytes_before;
  for (std::size_t i = 0; i < kAllocBuckets; ++i) {
    p.alloc_count_by[i] = g_alloc_count_by[i] - count_by_before[i];
    p.alloc_bytes_by[i] = g_alloc_bytes_by[i] - bytes_by_before[i];
  }
  p.perf = perf::snapshot();
  obs::perf_disable_timing();
  return p;
}

/// Wall-ns attribution per subsystem, summed over that subsystem's timed
/// sections (nested sections double-count into their parents by design —
/// within one subsystem the sections do not nest).
std::uint64_t subsystem_ns(const perf::Snapshot& s, const char* subsystem) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
    const auto sec = static_cast<perf::Section>(i);
    if (std::strcmp(perf::subsystem_of(sec), subsystem) == 0) {
      total += s.ns(sec);
    }
  }
  return total;
}

constexpr const char* kSubsystems[] = {"sim", "net", "lock", "txn", "obs"};

void write_json(std::ostream& os, const std::vector<Point>& points,
                bool quick) {
  bench::JsonWriter w(os);
  w.begin_object();
  w.key("bench").value("perf_core");
  w.key("schema_version").value(std::uint64_t{1});
  w.key("quick").value(quick);
  w.key("env").begin_object();
#if defined(__VERSION__)
  w.key("compiler").value(__VERSION__);
#else
  w.key("compiler").value("unknown");
#endif
#if defined(NDEBUG)
  w.key("assertions").value(false);
#else
  w.key("assertions").value(true);
#endif
  w.key("perf_compiled_in").value(RTDB_PERF != 0);
  w.key("pointer_bits").value(std::uint64_t{8 * sizeof(void*)});
  w.end_object();
  w.key("points").begin_array();
  for (const Point& p : points) {
    w.begin_object();
    w.key("system").value(p.system);
    w.key("clients").value(p.clients);
    w.key("sim_seconds").value(kSimSeconds);
    w.key("wall_s").value(p.wall_s);
    w.key("events").value(p.events);
    w.key("events_per_sec").value(p.events_per_sec());
    w.key("generated").value(p.metrics.generated);
    w.key("committed").value(p.metrics.committed);
    w.key("messages").value(p.metrics.messages.total_messages());
    w.key("peak_heap_kb").value(p.peak_heap_kb);
    w.key("alloc_count").value(p.alloc_count);
    w.key("alloc_bytes").value(p.alloc_bytes);
    w.key("alloc_by_subsystem").begin_object();
    for (std::size_t i = 0; i < kAllocBuckets; ++i) {
      const auto scope = static_cast<perf::AllocScopeId>(i);
      w.key(perf::to_string(scope)).begin_object();
      w.key("count").value(p.alloc_count_by[i]);
      w.key("bytes").value(p.alloc_bytes_by[i]);
      w.end_object();
    }
    w.end_object();
    w.key("counters").begin_object();
    for (std::size_t i = 0; i < perf::kCounterCount; ++i) {
      const auto c = static_cast<perf::Counter>(i);
      w.key(perf::to_string(c)).value(p.perf.counter(c));
    }
    w.end_object();
    w.key("subsystem_ns").begin_object();
    for (const char* sub : kSubsystems) {
      w.key(sub).value(subsystem_ns(p.perf, sub));
    }
    w.end_object();
    w.key("sections").begin_object();
    for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
      const auto s = static_cast<perf::Section>(i);
      w.key(perf::to_string(s)).begin_object();
      w.key("ns").value(p.perf.ns(s));
      w.key("hits").value(p.perf.hits(s));
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

void print_point(const Point& p) {
  // Per-subsystem share of the total attributed wall time.
  std::uint64_t attributed = 0;
  std::uint64_t per_sub[5] = {};
  for (std::size_t i = 0; i < 5; ++i) {
    per_sub[i] = subsystem_ns(p.perf, kSubsystems[i]);
    attributed += per_sub[i];
  }
  const double denom = attributed ? static_cast<double>(attributed) : 1.0;
  std::printf("%4s %8zu %9.3f %10llu %11.0f %8.1f |", p.system, p.clients,
              p.wall_s, static_cast<unsigned long long>(p.events),
              p.events_per_sec(),
              static_cast<double>(p.peak_heap_kb) / 1024.0);
  for (std::size_t i = 0; i < 5; ++i) {
    std::printf(" %4.1f%%", 100.0 * static_cast<double>(per_sub[i]) / denom);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::quick_mode(argc, argv);
  std::string out = "BENCH_perf_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  std::printf("=== perf_core: simulator throughput (%s sweep) ===\n\n",
              quick ? "quick" : "full");
#if !RTDB_PERF
  std::printf("warning: built with RTDB_PERF=0 — the counter catalog and\n"
              "         section times read 0 in this build (events, wall\n"
              "         and heap figures remain valid).\n\n");
#endif
  std::printf("%4s %8s %9s %10s %11s %8s | share of attributed time\n", "sys",
              "clients", "wall (s)", "events", "events/s", "heap MiB");
  std::printf("%4s %8s %9s %10s %11s %8s |  sim   net  lock   txn   obs\n",
              "", "", "", "", "", "");

  std::vector<Point> points;
  for (const auto& sut : kSystems) {
    for (const std::size_t n : perf_client_counts(quick)) {
      points.push_back(measure(sut, n));
      print_point(points.back());
    }
  }

  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  write_json(os, points, quick);
  std::fprintf(stderr, "json: %s\n", out.c_str());
  return 0;
}
