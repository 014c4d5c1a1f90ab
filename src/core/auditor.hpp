#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/dense_map.hpp"
#include "common/strong_id.hpp"
#include "sim/time.hpp"

/// \file auditor.hpp
/// End-to-end consistency checking. Every object carries a version number
/// that travels with its data through grants, forward-list hops and
/// returns; committed writes bump it. Because the whole cluster lives in
/// one process, an out-of-band auditor can hold the ground truth and check
/// the serializability-level invariants that strict 2PL with callback
/// locking must provide:
///
///  * no lost updates — committed writes to an object produce strictly
///    consecutive versions;
///  * no stale reads — a committed read saw the version that was current
///    at its commit point;
///  * no divergent copies — a clean copy returned to the server matches
///    the server's version.
///
/// The auditor observes; it never influences the simulation. Tests assert
/// `violations().empty()` across whole runs.

namespace rtdb::core {

/// Ground-truth version ledger + violation log.
class ConsistencyAuditor {
 public:
  /// What went wrong, where.
  struct Violation {
    enum class Kind : std::uint8_t {
      kLostUpdate,      ///< write committed from a stale base version
      kStaleRead,       ///< read committed against an outdated version
      kDivergentCopy,   ///< clean copy returned differing from the server's
    };
    Kind kind;
    ObjectId object;
    SiteId site;
    std::uint64_t expected;
    std::uint64_t got;
    sim::SimTime when;
  };

  /// A transaction holding an EL on `object` committed a write, producing
  /// `new_version` (its base + 1).
  void on_write_commit(ObjectId object, SiteId site, std::uint64_t new_version,
                       sim::SimTime when) {
    auto& committed = committed_.slot(object);
    ++writes_;
    trace(object, "write", site, new_version, when);
    if (new_version != committed + 1) {
      violations_.push_back({Violation::Kind::kLostUpdate, object, site,
                             committed + 1, new_version, when});
    }
    committed = new_version;
  }

  /// A transaction holding a SL on `object` committed having read
  /// `version_read`.
  void on_read_commit(ObjectId object, SiteId site, std::uint64_t version_read,
                      sim::SimTime when) {
    ++reads_;
    trace(object, "read", site, version_read, when);
    const std::uint64_t current = committed_.value_or_default(object);
    if (version_read != current) {
      violations_.push_back({Violation::Kind::kStaleRead, object, site,
                             current, version_read, when});
    }
  }

  /// The server received a *clean* copy claiming `version`; its own copy
  /// says `server_version`. They must agree.
  void on_clean_return(ObjectId object, SiteId site, std::uint64_t version,
                       std::uint64_t server_version, sim::SimTime when) {
    trace(object, "clean-return", site, version, when);
    if (version != server_version) {
      violations_.push_back({Violation::Kind::kDivergentCopy, object, site,
                             server_version, version, when});
    }
  }

  /// Debug aid: set RTDB_AUDIT_TRACE_OBJ=<id> to stream every audited
  /// event for one object to stderr.
  static void trace(ObjectId object, const char* what, SiteId site,
                    std::uint64_t version, sim::SimTime when) {
    static const long target = [] {
      const char* e = std::getenv("RTDB_AUDIT_TRACE_OBJ");
      return e ? std::atol(e) : -1L;
    }();
    if (target >= 0 && static_cast<long>(object.value()) == target) {
      std::fprintf(stderr, "[%.3f] audit %s obj=%u site=%d v=%llu\n",
                   when.sec(), what, object.value(), site.value(),
                   static_cast<unsigned long long>(version));
    }
  }

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t audited_reads() const { return reads_; }
  [[nodiscard]] std::uint64_t audited_writes() const { return writes_; }

  /// Latest committed version of an object (0 if never written).
  [[nodiscard]] std::uint64_t committed_version(ObjectId object) const {
    return committed_.value_or_default(object);
  }

  /// Fault-injection accounting: committed versions of `object` newer than
  /// `surviving_version` were destroyed before reaching stable storage (a
  /// crashed client's dirty cache, a forward list repaired by re-shipping
  /// the server's older copy). Rolls the ledger back to the version that
  /// actually survived so subsequent reads of it are not misreported as
  /// stale, and counts the loss — the chaos verifier proves every rollback
  /// is matched by an injected fault. Returns true if anything was rolled
  /// back. Never called on fault-free runs.
  bool rollback_committed(ObjectId object, std::uint64_t surviving_version,
                          sim::SimTime when) {
    if (committed_.value_or_default(object) <= surviving_version) {
      return false;
    }
    trace(object, "accounted-loss", kServerSite, surviving_version, when);
    committed_.slot(object) = surviving_version;
    ++accounted_losses_;
    return true;
  }

  /// Versions destroyed by injected faults and accounted via
  /// rollback_committed (0 on fault-free runs).
  [[nodiscard]] std::uint64_t accounted_losses() const {
    return accounted_losses_;
  }

  /// Human-readable one-line description of a violation (test diagnostics).
  static std::string describe(const Violation& v);

 private:
  common::DenseArray<ObjectId, std::uint64_t> committed_;
  std::vector<Violation> violations_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t accounted_losses_ = 0;
};

}  // namespace rtdb::core
