/// \file pass.cpp
/// One pass of the repository benchmark over one named workload. Built
/// twice (see CMakeLists.txt):
///
///  * perfbench_plain — the untraced pass. Section timers stay disarmed,
///    telemetry stays off and the stock allocator is used; it measures the
///    end-to-end host figures (wall, set-up, events/s, peak RSS) and the
///    simulated outcome (deadline-hit %, Table-2 fidelity).
///  * perfbench_traced — the traced pass over the same runs. It arms the
///    perf section timers, turns on telemetry spans, counts allocations per
///    subsystem scope and runs the from-outside probes (probes.hpp); it
///    measures the per-layer figures.
///
/// The batch of simulations is repeated until --seconds of host time have
/// been spent (at least once); host figures are medians over repetitions.
/// Every run is checked (outcome accounting, consistency ledger, double
/// records) and every repetition must reproduce the first one's simulated
/// outputs exactly. A failed check names the workload, system and seed on
/// stderr and exits 1. Output: one JSON object on stdout,
///
///     {"pass": "plain|traced", "workload": str, "reps": n,
///      "attempted": n, "failed": n,
///      "fingerprint": [str, ...],            // one line per run
///      "metrics": {name: [value, unit], ...}}
///
/// perfbench/run.py merges the passes into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "census.hpp"
#include "common/perf.hpp"
#include "core/runner.hpp"
#include "obs/perf.hpp"
#include "probes.hpp"

namespace {

using namespace rtdb;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double pct(std::uint64_t num, std::uint64_t den) {
  return 100.0 * ratio(static_cast<double>(num), static_cast<double>(den));
}

// --- workloads ---------------------------------------------------------------

struct SystemName {
  const char* name;  // metric suffix: ce|cs|ls|occ
  core::SystemKind kind;
};

struct RunSpec {
  SystemName system;
  core::SystemConfig cfg;
};

constexpr SystemName kCe{"ce", core::SystemKind::kCentralized};
constexpr SystemName kCs{"cs", core::SystemKind::kClientServer};
constexpr SystemName kLs{"ls", core::SystemKind::kLoadSharing};
constexpr SystemName kOcc{"occ", core::SystemKind::kOptimistic};

/// Table-1 defaults at `update_pct`, `clients` clients. --quick shortens
/// the simulated phases (the smoke test's scale); the full scale is the
/// paper's 200 s warm-up, 2,000 s measurement and 300 s drain.
core::SystemConfig base_config(double update_pct, std::size_t clients,
                               std::uint64_t seed, bool quick) {
  core::SystemConfig cfg = core::SystemConfig::paper_defaults(update_pct);
  cfg.num_clients = clients;
  cfg.seed = seed;
  if (quick) {
    cfg.warmup = sim::seconds(20);
    cfg.duration = sim::seconds(200);
    cfg.drain = sim::seconds(100);
  }
  return cfg;
}

/// Seeds per (system, config) point, seed..seed+n-1: the seed sequence of
/// core::run_replicated. The sweep replicates each point over four seeds
/// like the paper's repeated runs; the single-point workloads run one.
std::size_t seeds_per_point(const std::string& workload) {
  return workload == "sweep" ? 4 : 1;
}

void add_point(std::vector<RunSpec>& runs, const SystemName& s,
               core::SystemConfig cfg, std::size_t seeds) {
  const std::uint64_t base = cfg.seed;
  for (std::size_t r = 0; r < seeds; ++r) {
    cfg.seed = base + r;
    runs.push_back({s, cfg});
  }
}

/// The simulations of one workload, in execution order, each point at
/// seeds_per_point() seeds:
///
///  sweep      CE, CS, LS at 20/60/100 clients, 1 % updates
///  contended  CE, OCC at 100 clients, 20 % updates (CS and LS are left
///             out: they commit stale reads on some seeds there, see
///             README.md)
///  thrash     CS, LS at 100 clients, 1 % updates, uniform access over a
///             100,000-object database (caches and buffer hold 1,000)
std::vector<RunSpec> make_runs(const std::string& workload, std::uint64_t seed,
                               bool quick) {
  std::vector<RunSpec> runs;
  const std::size_t seeds = seeds_per_point(workload);
  if (workload == "sweep") {
    for (const std::size_t clients : {20, 60, 100}) {
      for (const SystemName& s : {kCe, kCs, kLs}) {
        add_point(runs, s, base_config(1.0, clients, seed, quick), seeds);
      }
    }
  } else if (workload == "contended") {
    for (const SystemName& s : {kCe, kOcc}) {
      add_point(runs, s, base_config(20.0, 100, seed, quick), seeds);
    }
  } else if (workload == "thrash") {
    core::SystemConfig cfg = base_config(1.0, 100, seed, quick);
    cfg.workload.db_size = 100'000;
    cfg.workload.locality = 0.0;
    cfg.workload.zipf_theta = 0.0;
    for (const SystemName& s : {kCs, kLs}) add_point(runs, s, cfg, seeds);
  }
  return runs;
}

// --- Table 2 reference -------------------------------------------------------

/// The paper's Table 2 (average client cache hit rates, %), as quoted in
/// EXPERIMENTS.md, section "Table 2 — average client cache hit rates (%)",
/// columns "paper CS 1/5/20 %" and "paper LS 1/5/20 %", rows 20/60/100.
struct PaperHitRate {
  std::size_t clients;
  double update_pct;
  double cs;
  double ls;
};

constexpr PaperHitRate kTable2[] = {
    {20, 1, 87.1, 89.6},  {20, 5, 84.6, 87.1},  {20, 20, 79.7, 84.3},
    {60, 1, 85.5, 88.6},  {60, 5, 78.2, 84.1},  {60, 20, 74.6, 81.7},
    {100, 1, 82.6, 86.6}, {100, 5, 75.5, 82.2}, {100, 20, 62.3, 66.9},
};

const PaperHitRate* table2_row(const core::SystemConfig& cfg) {
  if (cfg.workload.db_size != core::SystemConfig{}.workload.db_size ||
      cfg.workload.locality != core::SystemConfig{}.workload.locality) {
    return nullptr;  // not the paper's Localized-RW database
  }
  for (const auto& row : kTable2) {
    if (row.clients == cfg.num_clients &&
        std::fabs(row.update_pct - 100.0 * cfg.workload.update_fraction) <
            1e-9) {
      return &row;
    }
  }
  return nullptr;
}

// --- one run -----------------------------------------------------------------

/// What one simulation left behind, for both passes.
struct RunRecord {
  const RunSpec* spec = nullptr;
  core::RunMetrics m;
  std::uint64_t events = 0;
  double wall_s = 0;  // make_system + run + destruction
  // Traced pass only.
  perf::Snapshot perf;
  AllocCounts allocs{};
  std::array<double, obs::kWaitBucketCount> wait{};  // summed, sim-s
  std::uint64_t measured_spans = 0;
  std::array<std::uint64_t, obs::kWaitBucketCount> miss_by{};
};

[[noreturn]] void fail(const char* what, const std::string& workload,
                       const RunSpec& s) {
  std::fprintf(stderr,
               "perfbench: check failed: %s (workload %s, system %s, "
               "clients %zu, seed %llu)\n",
               what, workload.c_str(), s.system.name, s.cfg.num_clients,
               static_cast<unsigned long long>(s.cfg.seed));
  std::exit(1);
}

RunRecord run_one(const RunSpec& spec, bool traced,
                  const std::string& workload) {
  RunRecord r;
  r.spec = &spec;
  core::SystemConfig cfg = spec.cfg;
  cfg.telemetry.spans = traced;
  if (traced) perf::reset();
  const AllocCounts allocs_before = census_counts();

  const auto t0 = Clock::now();
  auto sys = core::make_system(spec.system.kind, cfg);
  r.m = sys->run();
  const auto t2 = Clock::now();

  r.events = sys->simulator().events_executed();
  if (!r.m.accounted()) fail("outcomes not accounted", workload, spec);
  if (r.m.consistency_violations != 0) {
    fail("consistency violations", workload, spec);
  }
  if (sys->double_records() != 0) fail("double records", workload, spec);

  if (traced) {
    r.perf = perf::snapshot();
    const AllocCounts after = census_counts();
    for (std::size_t b = 0; b < kAllocBuckets; ++b) {
      r.allocs[b] = after[b] - allocs_before[b];
    }
    const auto& tel = sys->telemetry();
    for (const obs::TxnSpan* span : tel.spans_sorted()) {
      if (span->arrival < cfg.measure_start() ||
          span->arrival >= cfg.measure_end()) {
        continue;
      }
      ++r.measured_spans;
      for (std::size_t b = 0; b < obs::kWaitBucketCount; ++b) {
        r.wait[b] += span->wait[b];
      }
    }
    const auto& attr = tel.attribution();
    for (std::size_t b = 0; b < obs::kWaitBucketCount; ++b) {
      r.miss_by[b] = attr.misses[b] + attr.aborts[b];
    }
  }

  const auto t3 = Clock::now();
  sys.reset();
  const auto t4 = Clock::now();
  r.wall_s = seconds_between(t0, t2) + seconds_between(t3, t4);
  return r;
}

/// The deterministic outputs of one run; both passes and every repetition
/// must agree on them exactly.
std::string fingerprint(const RunRecord& r) {
  const auto& m = r.m;
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "%s clients=%zu seed=%llu events=%llu generated=%llu committed=%llu "
      "missed=%llu aborted=%llu messages=%llu cache_hits=%llu "
      "cache_misses=%llu",
      r.spec->system.name, r.spec->cfg.num_clients,
      static_cast<unsigned long long>(r.spec->cfg.seed),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(m.generated),
      static_cast<unsigned long long>(m.committed),
      static_cast<unsigned long long>(m.missed),
      static_cast<unsigned long long>(m.aborted),
      static_cast<unsigned long long>(m.messages.total_messages()),
      static_cast<unsigned long long>(m.cache_hits),
      static_cast<unsigned long long>(m.cache_misses));
  return buf;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

using Rep = std::vector<RunRecord>;

/// Simulated outcome metrics, identical in both passes: deadline-hit % per
/// system (committed over measured transactions, pooled over seeds) and
/// over the whole batch ("all"), and the mean absolute gap to the paper's
/// Table 2 where it has a row.
void outcome_metrics(const Rep& rep, std::vector<Metric>& out) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hits;
  std::vector<std::string> order;
  // Mean client cache hit % over seeds, per (table row, system).
  std::map<std::pair<const PaperHitRate*, std::string>,
           std::pair<double, int>>
      ours;
  for (const auto& r : rep) {
    const std::string sys = r.spec->system.name;
    if (!hits.count(sys)) order.push_back(sys);
    hits[sys].first += r.m.committed;
    hits[sys].second += r.m.generated;
    if (const PaperHitRate* row = table2_row(r.spec->cfg);
        row && (sys == "cs" || sys == "ls")) {
      auto& cell = ours[{row, sys}];
      cell.first += r.m.cache_hit_percent();
      ++cell.second;
    }
  }
  std::uint64_t committed = 0, generated = 0;
  for (const auto& sys : order) {
    out.push_back(
        {"hit_pct." + sys, pct(hits[sys].first, hits[sys].second), "%"});
    committed += hits[sys].first;
    generated += hits[sys].second;
  }
  out.push_back({"hit_pct.all", pct(committed, generated), "%"});
  if (ours.empty()) return;
  double err = 0;
  for (const auto& [key, cell] : ours) {
    const double paper = key.second == "cs" ? key.first->cs : key.first->ls;
    err += std::fabs(cell.first / cell.second - paper);
  }
  out.push_back(
      {"paper_err_pt", err / static_cast<double>(ours.size()), "pt"});
}

/// What a repetition leaves once its systems are gone: host totals, the
/// deterministic outputs and, in the traced pass, the per-layer figures.
/// Summarising at once keeps one repetition's records alive at a time, so
/// the process's peak RSS does not grow with the repetition count.
struct RepSummary {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::vector<std::string> prints;
  std::vector<Metric> outcome;
  std::map<std::string, Metric> layers;
  // Operations are the measured transactions. Deadline misses and aborts
  // are the modelled outcome (hit_pct.*); an operation fails when its run
  // lost track of it, which the accounting check already rejects.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host seconds of one set-up of every system of the batch: make_system()
/// only, each system destroyed untimed before the next is built.
double setup_batch_s(const std::vector<RunSpec>& runs) {
  double total = 0;
  for (const auto& spec : runs) {
    const auto t0 = Clock::now();
    auto sys = core::make_system(spec.system.kind, spec.cfg);
    total += seconds_between(t0, Clock::now());
  }
  return total;
}

/// Host end-to-end figures of the untraced pass: medians over repetitions
/// (wall) and over the set-up batches `setups` (set-up).
void plain_metrics(const std::vector<RepSummary>& reps,
                   const std::vector<double>& setups,
                   std::vector<Metric>& out) {
  std::vector<double> wall;
  for (const auto& rep : reps) wall.push_back(rep.wall_s);
  const double wall_s = median(wall);
  out.push_back({"wall_s", wall_s, "s"});
  out.push_back({"events_per_s",
                 ratio(static_cast<double>(reps.front().events), wall_s),
                 "1/s"});
  out.push_back({"setup_s", median(setups), "s"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
}

/// The per-layer figures of one traced repetition.
std::map<std::string, Metric> layer_metrics(const Rep& rep) {
  std::map<std::string, Metric> out;
  const auto put = [&out](const std::string& name, double value,
                          const char* unit) {
    out[name] = Metric{name, value, unit};
  };
  double wall_s = 0;
  std::uint64_t events = 0;
  perf::Snapshot perf;
  AllocCounts allocs{};
  std::array<double, obs::kWaitBucketCount> wait{};
  std::array<std::uint64_t, obs::kWaitBucketCount> miss_by{};
  std::uint64_t spans = 0, generated = 0, messages = 0, bytes = 0;
  std::uint64_t requests = 0, fwd_sat = 0, refusals = 0, decomposed = 0;
  std::uint64_t h1 = 0, h2 = 0, h1_rej = 0, occ_val = 0, occ_rej = 0;
  std::uint64_t expired = 0, cache_hits = 0, cache_accesses = 0;
  double net_util = 0, disk_util = 0, cpu_util = 0;
  double sl_sum = 0, el_sum = 0;
  std::uint64_t sl_n = 0, el_n = 0;
  sim::SampleStats response;
  for (const auto& r : rep) {
    wall_s += r.wall_s;
    events += r.events;
    for (std::size_t i = 0; i < perf::kCounterCount; ++i) {
      perf.counters[i] += r.perf.counters[i];
    }
    for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
      perf.section_ns[i] += r.perf.section_ns[i];
      perf.section_hits[i] += r.perf.section_hits[i];
    }
    for (std::size_t b = 0; b < kAllocBuckets; ++b) allocs[b] += r.allocs[b];
    for (std::size_t b = 0; b < obs::kWaitBucketCount; ++b) {
      wait[b] += r.wait[b];
      miss_by[b] += r.miss_by[b];
    }
    spans += r.measured_spans;
    const auto& m = r.m;
    generated += m.generated;
    messages += m.messages.total_messages();
    bytes += m.messages.total_bytes();
    requests += m.messages.messages(net::MessageKind::kObjectRequest);
    fwd_sat += m.forward_list_satisfactions;
    refusals += m.deadlock_refusals;
    decomposed += m.decomposed_txns;
    h1 += m.h1_ships;
    h2 += m.h2_ships;
    h1_rej += m.h1_rejections;
    occ_val += m.occ_validations;
    occ_rej += m.occ_rejections;
    expired += m.expired_requests_skipped;
    cache_hits += m.cache_hits;
    cache_accesses += m.cache_hits + m.cache_misses;
    net_util += m.network_utilization;
    disk_util += m.server_disk_utilization;
    cpu_util += m.server_cpu_utilization;
    sl_sum += m.object_response_shared.mean() *
              static_cast<double>(m.object_response_shared.count());
    sl_n += m.object_response_shared.count();
    el_sum += m.object_response_exclusive.mean() *
              static_cast<double>(m.object_response_exclusive.count());
    el_n += m.object_response_exclusive.count();
    response.merge(m.response_time);
  }
  const double runs = static_cast<double>(rep.size());
  const double txns = static_cast<double>(generated);
  const auto ms = [&perf](perf::Section s) {
    return static_cast<double>(perf.ns(s)) * 1e-6;
  };
  const auto count = [&perf](perf::Counter c) {
    return static_cast<double>(perf.counter(c));
  };
  const auto per_txn = [txns](double x) { return ratio(x, txns); };
  const auto alloc = [&allocs, &per_txn](perf::AllocScopeId s) {
    return per_txn(static_cast<double>(allocs[static_cast<std::size_t>(s)]));
  };
  const auto wait_per_txn = [&wait, spans](obs::WaitBucket b) {
    return ratio(wait[static_cast<std::size_t>(b)], static_cast<double>(spans));
  };
  const auto misses = [&miss_by](obs::WaitBucket b) {
    return static_cast<double>(miss_by[static_cast<std::size_t>(b)]);
  };
  using perf::AllocScopeId;
  using perf::Counter;
  using perf::Section;
  using obs::WaitBucket;

  put("sim.events", static_cast<double>(events), "count");
  put("sim.cancelled", count(Counter::kSimEventsCancelled), "count");
  put("sim.schedule_ms", ms(Section::kSimSchedule), "ms");
  put("sim.pop_ms", ms(Section::kSimPop), "ms");
  put("sim.allocs_per_txn", alloc(AllocScopeId::kSim), "count");

  put("net.messages", static_cast<double>(messages), "count");
  put("net.bytes", static_cast<double>(bytes), "bytes");
  put("net.msgs_per_txn", per_txn(static_cast<double>(messages)), "count");
  put("net.send_ms", ms(Section::kNetSend), "ms");
  put("net.util_pct", 100.0 * net_util / runs, "%");
  put("net.wait_per_txn_sim_s", wait_per_txn(WaitBucket::kNet), "sim_s");
  put("net.allocs_per_txn", alloc(AllocScopeId::kNet), "count");

  put("lock.glt_grants", count(Counter::kGltGrants), "count");
  put("lock.glt_scans", count(Counter::kGltConflictScans), "count");
  put("lock.wfg_checks", count(Counter::kWfgCycleChecks), "count");
  put("lock.fwd_inserts", count(Counter::kFwdListInserts), "count");
  put("lock.fwd_pops", count(Counter::kFwdListPops), "count");
  put("lock.fwd_expired", count(Counter::kFwdListExpiredDrops), "count");
  put("lock.glt_query_ms", ms(Section::kGltQuery), "ms");
  put("lock.wfg_ms", ms(Section::kWfgCycleCheck), "ms");
  put("lock.fwd_ms", ms(Section::kFwdList), "ms");
  put("lock.wait_per_txn_sim_s", wait_per_txn(WaitBucket::kLock), "sim_s");
  put("lock.resp_sl_sim_s", ratio(sl_sum, static_cast<double>(sl_n)),
      "sim_s");
  put("lock.resp_el_sim_s", ratio(el_sum, static_cast<double>(el_n)),
      "sim_s");
  put("lock.deadlock_refusals", static_cast<double>(refusals), "count");
  put("lock.fwd_sat_pct", pct(fwd_sat, requests), "%");
  put("lock.allocs_per_txn", alloc(AllocScopeId::kLock), "count");

  put("storage.client_hit_pct", pct(cache_hits, cache_accesses), "%");
  put("storage.disk_util_pct", 100.0 * disk_util / runs, "%");
  put("storage.disk_wait_per_txn_sim_s", wait_per_txn(WaitBucket::kDisk),
      "sim_s");

  put("txn.edf_pushes", count(Counter::kEdfPushes), "count");
  put("txn.edf_ms", ms(Section::kEdfQueue), "ms");
  put("txn.queue_wait_per_txn_sim_s", wait_per_txn(WaitBucket::kQueue),
      "sim_s");
  put("txn.decomposed", static_cast<double>(decomposed), "count");
  put("txn.allocs_per_txn", alloc(AllocScopeId::kTxn), "count");

  // Section time; a nested section (sim_schedule inside net_send) counts
  // in both, so other_ms is a lower bound on the untimed remainder.
  double sections_ms = 0;
  for (std::size_t i = 0; i < perf::kSectionCount; ++i) {
    sections_ms += ms(static_cast<Section>(i));
  }
  const double wall_ms = wall_s * 1e3;
  put("core.other_ms", wall_ms - sections_ms, "ms");
  put("core.attributed_pct", 100.0 * ratio(sections_ms, wall_ms), "%");
  put("core.server_cpu_util_pct", 100.0 * cpu_util / runs, "%");
  put("core.resp_p50_sim_s", response.quantile(0.50), "sim_s");
  put("core.resp_p99_sim_s", response.quantile(0.99), "sim_s");
  put("core.h1_ships", static_cast<double>(h1), "count");
  put("core.h2_ships", static_cast<double>(h2), "count");
  put("core.h1_rejections", static_cast<double>(h1_rej), "count");
  put("core.occ_reject_pct", pct(occ_rej, occ_val), "%");
  put("core.expired_skipped", static_cast<double>(expired), "count");
  put("core.miss_queue", misses(WaitBucket::kQueue), "count");
  put("core.miss_lock", misses(WaitBucket::kLock), "count");
  put("core.miss_net", misses(WaitBucket::kNet), "count");
  put("core.miss_disk", misses(WaitBucket::kDisk), "count");
  put("core.allocs_per_txn", alloc(AllocScopeId::kNone), "count");

  put("workload.generated", static_cast<double>(generated), "count");

  put("obs.telemetry_ms", ms(Section::kTelemetry), "ms");
  put("obs.allocs_per_txn", alloc(AllocScopeId::kObs), "count");

  put("traced_wall_s", wall_s, "s");
  return out;
}

RepSummary summarize(const Rep& rep, bool traced) {
  RepSummary s;
  for (const auto& r : rep) {
    s.wall_s += r.wall_s;
    s.events += r.events;
    s.prints.push_back(fingerprint(r));
    s.attempted += r.m.generated;
    s.failed += r.m.generated - (r.m.committed + r.m.missed + r.m.aborted);
  }
  outcome_metrics(rep, s.outcome);
  if (traced) s.layers = layer_metrics(rep);
  return s;
}

/// Per-layer figures, medians over repetitions (counts are the same in
/// every repetition, so theirs is the count). Allocation counts come from
/// the first repetition alone: later ones reuse the pools it grew, so a
/// median would depend on how many repetitions the budget allowed.
void traced_metrics(const std::vector<RepSummary>& reps,
                    std::vector<Metric>& out) {
  for (auto [name, metric] : reps.front().layers) {
    if (!name.ends_with("allocs_per_txn")) {
      std::vector<double> values;
      for (const auto& rep : reps) values.push_back(rep.layers.at(name).value);
      metric.value = median(values);
    }
    out.push_back(metric);
  }
}

/// Distinct (clients, update %, database) configurations of a workload at
/// its base seed: the probes generate one stream per configuration.
std::vector<core::SystemConfig> probe_configs(const std::vector<RunSpec>& runs,
                                              std::uint64_t seed) {
  std::vector<core::SystemConfig> out;
  for (const auto& r : runs) {
    if (r.cfg.seed != seed) continue;
    const bool seen = std::any_of(out.begin(), out.end(), [&r](const auto& c) {
      return c.num_clients == r.cfg.num_clients &&
             c.workload.update_fraction == r.cfg.workload.update_fraction &&
             c.workload.db_size == r.cfg.workload.db_size;
    });
    if (!seen) out.push_back(r.cfg);
  }
  return out;
}

/// The batch drives each (system, config) point through make_system() so
/// that events_executed() and double_records() are visible; this proves the
/// outcome equals core::run_replicated over the same seed sequence.
void cross_check_replicated(const std::vector<RunSpec>& runs, const Rep& rep,
                            const std::string& workload) {
  const std::size_t seeds = seeds_per_point(workload);
  for (std::size_t i = 0; i < runs.size(); i += seeds) {
    std::uint64_t committed = 0, generated = 0;
    for (std::size_t j = i; j < i + seeds; ++j) {
      committed += rep[j].m.committed;
      generated += rep[j].m.generated;
    }
    const auto agg =
        core::run_replicated(runs[i].system.kind, runs[i].cfg, seeds);
    if (agg.total_committed() != committed ||
        agg.total_generated() != generated) {
      fail("differs from run_replicated", workload, runs[i]);
    }
  }
}

// --- output ------------------------------------------------------------------

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_{plain,traced} --workload "
               "sweep|contended|thrash [--seed N] [--seconds S] "
               "[--quick] [--check-replicated]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 42;
  double budget_s = 10;
  bool quick = false;
  bool check_replicated = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      budget_s = std::strtod(argv[++i], nullptr);
    } else if (a == "--quick") {
      quick = true;
    } else if (a == "--check-replicated") {
      check_replicated = true;
    } else {
      return usage();
    }
  }
  const std::vector<RunSpec> runs = make_runs(workload, seed, quick);
  if (runs.empty()) return usage();

  const bool traced = census_enabled();
  if (traced) obs::perf_enable_timing();

  // Repeat the batch until the budget is spent, stopping early when the
  // next repetition would overrun it by more than half a repetition.
  // Set-up is milliseconds against a wall of seconds, so the untraced pass
  // samples it apart from the timed runs: a few set-up batches after every
  // repetition, so that its median, like the wall's, spans the whole pass
  // rather than one moment of a shared host; topped up at the end to at
  // least kMinSetupBatches.
  constexpr int kSetupBatchesPerRep = 8;
  constexpr std::size_t kMinSetupBatches = 31;
  std::vector<RepSummary> reps;
  std::vector<double> setups;
  const auto start = Clock::now();
  for (;;) {
    Rep rep;
    for (const auto& spec : runs) {
      rep.push_back(run_one(spec, traced, workload));
    }
    if (reps.empty() && check_replicated) {
      cross_check_replicated(runs, rep, workload);
    }
    reps.push_back(summarize(rep, traced));
    const auto& prints = reps.front().prints;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (reps.back().prints[i] != prints[i]) {
        fail("repetition diverged from the first", workload, runs[i]);
      }
    }
    for (int i = 0; !traced && i < kSetupBatchesPerRep; ++i) {
      setups.push_back(setup_batch_s(runs));
    }
    const double spent = seconds_between(start, Clock::now());
    const double per_rep = spent / static_cast<double>(reps.size());
    if (spent + 0.5 * per_rep >= budget_s) break;
  }
  if (traced) obs::perf_disable_timing();

  const RepSummary& first = reps.front();
  std::vector<Metric> metrics = first.outcome;
  if (traced) {
    traced_metrics(reps, metrics);
    const ProbeResults p = run_probes(probe_configs(runs, seed), 3);
    metrics.push_back({"storage.replay_ns_per_access",
                       p.replay_ns_per_access, "ns"});
    metrics.push_back({"storage.replay_hit_pct", p.replay_hit_pct, "%"});
    metrics.push_back({"txn.decompose_ns", p.decompose_ns, "ns"});
    metrics.push_back({"workload.gen_ns_per_txn", p.gen_ns_per_txn, "ns"});
  } else {
    while (setups.size() < kMinSetupBatches) {
      setups.push_back(setup_batch_s(runs));
    }
    plain_metrics(reps, setups, metrics);
  }

  std::printf("{\"pass\": \"%s\", \"workload\": ", traced ? "traced" : "plain");
  print_json_string(workload);
  std::printf(", \"reps\": %zu, \"attempted\": %llu, \"failed\": %llu, ",
              reps.size(), static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  std::printf("\"fingerprint\": [");
  for (std::size_t i = 0; i < first.prints.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(first.prints[i]);
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) std::printf(", ");
    print_json_string(metrics[i].name);
    std::printf(": [%.17g, ", metrics[i].value);
    print_json_string(metrics[i].unit);
    std::printf("]");
  }
  std::printf("}}\n");
  return 0;
}
