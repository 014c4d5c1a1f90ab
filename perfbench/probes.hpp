#pragma once

#include <vector>

#include "core/config.hpp"

/// \file probes.hpp
/// From-outside probes of the layers that have no section timers yet
/// (workload generation, the storage caches, transaction decomposition).
/// Each probe is fed by workload::WorkloadSuite with a workload's own
/// config and seed, and times the library calls from the benchmark's side.

namespace perfbench {

struct ProbeResults {
  double gen_ns_per_txn = 0;        ///< inter-arrival draw + make_transaction
  double replay_ns_per_access = 0;  ///< ClientCache + server LruBuffer
  double replay_hit_pct = 0;        ///< client cache hits in the replay
  double decompose_ns = 0;          ///< txn::decompose per decomposable txn
};

/// Median of `v` (the mean of the middle two for an even count).
double median(std::vector<double> v);

/// Runs every probe over the generated streams of `configs` (one stream
/// per config), `repeats` times, and reports each figure's median.
ProbeResults run_probes(const std::vector<rtdb::core::SystemConfig>& configs,
                        int repeats);

}  // namespace perfbench
