#pragma once

#include <memory>
#include <vector>

#include "common/strong_id.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "txn/transaction.hpp"
#include "workload/access_pattern.hpp"

/// \file generator.hpp
/// Transaction stream generation per the paper's Table 1: Poisson arrivals
/// (mean inter-arrival 10 s), exponential transaction lengths (mean 10 s),
/// exponential deadlines (mean 20 s), ~10 objects per transaction, an update
/// percentage in {1, 5, 20}, and 10 % decomposable transactions.

namespace rtdb::workload {

/// How clients' private regions are placed over the database.
enum class RegionPlacement : std::uint8_t {
  /// Fixed-size regions at seeded-random origins; with many clients they
  /// overlap, so "local" objects are shared by a few clients. Reproduces
  /// the paper's falling per-client hit rates as the cluster grows and
  /// gives transaction-shipping genuine data-affine targets.
  kRandomOverlap,
  /// Disjoint regions of db_size/num_clients carved from the top of the id
  /// space (no region sharing; contention only through the Zipf remainder).
  kDisjoint,
};

/// Table 1 parameters (plus the distribution details the paper leaves
/// implicit, documented inline).
struct WorkloadConfig {
  std::size_t db_size = 10'000;          ///< objects in the database
  sim::Duration mean_interarrival = sim::seconds(10);  ///< Poisson arrivals
  sim::Duration mean_length = sim::seconds(10);  ///< exp. processing time
  /// Mean *extra* slack beyond the transaction's own length; the paper's
  /// "average transaction deadline 20 sec" = mean_length + mean_slack.
  /// (With a fully independent exp(20) deadline ~1/3 of transactions would
  /// be born infeasible; adding the length keeps the paper's 20 s mean while
  /// making every transaction feasible on an unloaded site.)
  sim::Duration mean_slack = sim::seconds(10);
  double mean_ops = 10;                  ///< Poisson-distributed, min 1
  double update_fraction = 0.01;         ///< per-access update probability
  double decomposable_fraction = 0.10;   ///< paper §5.1: 10 %
  double locality = 0.75;                ///< Localized-RW: in-region share
  double zipf_theta = 0.86;              ///< skew of the shared remainder
  /// Region placement policy.
  RegionPlacement region_placement = RegionPlacement::kRandomOverlap;
  /// Private-region size per client; 0 = auto (500 objects — the cache-
  /// sized region of the 20-client disjoint split — for kRandomOverlap;
  /// db_size / num_clients for kDisjoint).
  std::size_t region_size = 0;
};

/// Per-client transaction source. Owns an independent RNG stream so adding
/// or removing clients never perturbs other clients' workloads.
class ClientWorkload {
 public:
  ClientWorkload(const WorkloadConfig& config, const AccessPattern& pattern,
                 std::size_t client_index, SiteId site, sim::Rng rng);

  /// Gap to the next arrival (exponential -> Poisson process).
  sim::Duration next_interarrival();

  /// Builds the next transaction arriving at `arrival`.
  txn::Transaction make_transaction(TxnId id, sim::SimTime arrival);

  [[nodiscard]] SiteId site() const { return site_; }

 private:
  const WorkloadConfig& config_;
  const AccessPattern& pattern_;
  std::size_t client_index_;
  SiteId site_;
  sim::Rng rng_;
};

/// Samples a Poisson(mean) count (Knuth's product method; mean is small —
/// ~10 objects — so this is O(mean)).
std::size_t sample_poisson(sim::Rng& rng, double mean);

/// Builds the pattern + per-client sources for an N-client cluster.
class WorkloadSuite {
 public:
  WorkloadSuite(WorkloadConfig config, std::size_t num_clients,
                std::uint64_t seed);

  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  ClientWorkload& client(std::size_t index) { return *clients_[index]; }
  [[nodiscard]] const AccessPattern& pattern() const { return *pattern_; }
  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// The effective private-region size after the auto rule.
  [[nodiscard]] std::size_t effective_region_size() const {
    return region_size_;
  }

 private:
  WorkloadConfig config_;
  std::size_t region_size_;
  std::unique_ptr<AccessPattern> pattern_;
  std::vector<std::unique_ptr<ClientWorkload>> clients_;
};

}  // namespace rtdb::workload
