#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/strong_id.hpp"
#include "sim/rng.hpp"

/// \file access_pattern.hpp
/// Database access patterns. The paper's experiments use *Localized-RW*:
/// "75% of each client's accesses were made to a particular portion of the
/// database according to the Uniform distribution while the other 25% of the
/// accesses were to the remainder of the database according to the Zipf
/// distribution."

namespace rtdb::workload {

/// Which object a client touches next.
class AccessPattern {
 public:
  virtual ~AccessPattern() = default;

  /// Samples the object for one access by `client_index` (0-based).
  virtual ObjectId sample(std::size_t client_index, sim::Rng& rng) const = 0;

  /// Database size the pattern draws from.
  [[nodiscard]] virtual std::size_t db_size() const = 0;
};

/// Uniform over the whole database (no locality; used in tests/ablations).
class UniformPattern final : public AccessPattern {
 public:
  explicit UniformPattern(std::size_t db_size);
  ObjectId sample(std::size_t client_index, sim::Rng& rng) const override;
  [[nodiscard]] std::size_t db_size() const override { return db_size_; }

 private:
  std::size_t db_size_;
};

/// The paper's Localized-RW pattern.
///
/// Each client has a region of `region_size` contiguous objects; a fraction
/// `locality` of its accesses hit that region uniformly, the rest hit the
/// remainder of the database (everything outside its own region, including
/// other clients' regions) with Zipf(theta) skew — rank 0 maps to object 0.
///
/// Two placements:
///  * disjoint — regions carved from the *top* of the id space (client i
///    owns [db_size - (i+1)*region_size, ...)); requires
///    num_clients * region_size <= db_size. The hot Zipf head is owned by
///    nobody.
///  * explicit starts — arbitrary (typically random, overlapping) region
///    origins, one per client. With fixed-size regions and many clients
///    the regions overlap, so "local" objects are shared by a few clients —
///    the contention structure that makes the paper's per-client hit rates
///    fall as the cluster grows.
class LocalizedRwPattern final : public AccessPattern {
 public:
  /// Disjoint placement. Requires num_clients * region_size <= db_size.
  LocalizedRwPattern(std::size_t db_size, std::size_t num_clients,
                     std::size_t region_size, double locality,
                     double zipf_theta);

  /// Explicit (possibly overlapping) placement: `region_firsts[i]` is the
  /// first object of client i's region. Each start must satisfy
  /// start + region_size <= db_size.
  LocalizedRwPattern(std::size_t db_size, std::vector<ObjectId> region_firsts,
                     std::size_t region_size, double locality,
                     double zipf_theta);

  ObjectId sample(std::size_t client_index, sim::Rng& rng) const override;
  [[nodiscard]] std::size_t db_size() const override { return db_size_; }

  /// The private region of a client: [first, first + region_size).
  [[nodiscard]] ObjectId region_first(std::size_t client_index) const;
  [[nodiscard]] std::size_t region_size() const { return region_size_; }
  [[nodiscard]] double locality() const { return locality_; }

  /// True if `id` lies in `client_index`'s private region.
  [[nodiscard]] bool in_region(std::size_t client_index, ObjectId id) const;

 private:
  std::size_t db_size_;
  std::size_t num_clients_;
  std::size_t region_size_;
  double locality_;
  /// Explicit region origins (empty = disjoint top-carved placement).
  std::vector<ObjectId> region_firsts_;
  sim::ZipfDistribution zipf_;  // over db_size - region_size ranks
};

/// Classic hot/cold skew without per-client regions: a fraction
/// `hot_access_fraction` of every client's accesses goes to the first
/// `hot_set_fraction` of the database uniformly; the rest hits the cold
/// remainder uniformly (e.g. 0.8/0.2 = the 80-20 rule). All clients share
/// the same hot set, so contention concentrates there — the opposite
/// corner of the design space from Localized-RW's private regions.
class HotColdPattern final : public AccessPattern {
 public:
  /// Requires 0 < hot_set_fraction < 1 and hot_access_fraction in [0,1].
  HotColdPattern(std::size_t db_size, double hot_set_fraction,
                 double hot_access_fraction);

  ObjectId sample(std::size_t client_index, sim::Rng& rng) const override;
  [[nodiscard]] std::size_t db_size() const override { return db_size_; }

  /// Number of objects in the hot set (ids [0, hot_count)).
  [[nodiscard]] std::size_t hot_count() const { return hot_count_; }

 private:
  std::size_t db_size_;
  std::size_t hot_count_;
  double hot_access_fraction_;
};

}  // namespace rtdb::workload
