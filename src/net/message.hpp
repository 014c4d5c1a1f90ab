#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string_view>

#include "common/strong_id.hpp"
#include "sim/stats.hpp"

/// \file message.hpp
/// Message taxonomy of the client-server protocols. The categories mirror
/// the rows of the paper's Table 4 (object requests, shipments, forward-list
/// hops, recalls, returns) plus the control traffic of the CE and LS
/// configurations.

namespace rtdb::net {

/// Every message exchanged in the cluster belongs to one kind; the
/// experiment harness reports per-kind counts (paper Table 4).
enum class MessageKind : std::uint8_t {
  kObjectRequest,    ///< client -> server: request object/lock
  kObjectShip,       ///< server -> client: object + lock (+ forward list)
  kObjectForward,    ///< client -> client: forward-list hop (via directory)
  kObjectRecall,     ///< server -> client: callback (release/downgrade)
  kObjectReturn,     ///< client -> server: object/lock returned
  kLockGrant,        ///< server -> client: lock-only grant (object cached)
  kTxnSubmit,        ///< terminal -> server (CE): execute this transaction
  kTxnShip,          ///< client -> client (LS): shipped transaction
  kTxnResult,        ///< executing site -> originating client: results
  kSubtaskShip,      ///< client -> client (LS): decomposed sub-task
  kSubtaskResult,    ///< client -> client (LS): sub-task answer
  kLocationQuery,    ///< client -> server (LS): who holds these objects?
  kLocationReply,    ///< server -> client (LS): holders + load table
  kValidateRequest,  ///< client -> server (OCC): read/write sets + updates
  kValidateReply,    ///< server -> client (OCC): verdict (+ fresh copies)
  kControl,          ///< miscellaneous small control traffic
  kLockReassert,     ///< client -> server: re-register surviving grants
  kReassertAck,      ///< server -> client: re-registration verdicts
  kKindCount         ///< sentinel: number of kinds
};

/// Number of distinct message kinds.
inline constexpr std::size_t kMessageKindCount =
    static_cast<std::size_t>(MessageKind::kKindCount);

/// Number of kinds that existed before the server-recovery protocol. Kinds
/// below this bound fold into run digests unconditionally (their layout is
/// pinned by scripts/golden_digests.txt); later kinds fold only when a run
/// actually sends them, so fault-free goldens never move when the protocol
/// grows a new recovery message.
inline constexpr std::size_t kLegacyKindCount =
    static_cast<std::size_t>(MessageKind::kControl) + 1;

/// Human-readable kind name (stable, used by the table harnesses).
std::string_view to_string(MessageKind kind);

// ---------------------------------------------------------------------------
// Message typestate: which endpoint category may send / receive each kind.
//
// Every kind's direction is part of the protocol (the comments above are
// normative, not documentation). The direction table below turns them into
// compile-time facts: `Network::send<K>(src, dst, ...)` only accepts typed
// endpoints (`ClientId`, `kServer`) whose category matches `direction_of(K)`,
// so a server-to-client kind sent from a client is a compile error, not a
// miscounted Table-4 row.
// ---------------------------------------------------------------------------

/// Endpoint category a message kind constrains its source/destination to.
enum class Endpoint : std::uint8_t {
  kClient,  ///< any client workstation (site >= kFirstClientSite)
  kServer,  ///< the central server (site == kServerSite)
  kAny,     ///< unconstrained (e.g. control traffic)
};

/// (source, destination) constraint of one message kind.
struct Direction {
  Endpoint src;
  Endpoint dst;
};

/// The protocol's direction table. Total over MessageKind (kKindCount maps
/// to any/any so the switch stays exhaustive without a default).
constexpr Direction direction_of(MessageKind kind) {
  switch (kind) {
    case MessageKind::kObjectRequest:
    case MessageKind::kObjectReturn:
    case MessageKind::kTxnSubmit:
    case MessageKind::kLocationQuery:
    case MessageKind::kValidateRequest:
    case MessageKind::kLockReassert:
      return {Endpoint::kClient, Endpoint::kServer};
    case MessageKind::kObjectShip:
    case MessageKind::kObjectRecall:
    case MessageKind::kLockGrant:
    case MessageKind::kLocationReply:
    case MessageKind::kValidateReply:
    case MessageKind::kReassertAck:
      return {Endpoint::kServer, Endpoint::kClient};
    case MessageKind::kObjectForward:
    case MessageKind::kTxnShip:
    case MessageKind::kSubtaskShip:
    case MessageKind::kSubtaskResult:
      return {Endpoint::kClient, Endpoint::kClient};
    case MessageKind::kTxnResult:
      // Results flow back to the originating client from whichever site
      // executed: the server under CE, a (possibly different) client under
      // LS shipping/decomposition.
      return {Endpoint::kAny, Endpoint::kClient};
    case MessageKind::kControl:
    case MessageKind::kKindCount:
      return {Endpoint::kAny, Endpoint::kAny};
  }
  return {Endpoint::kAny, Endpoint::kAny};
}

/// True when an endpoint of category `actual` satisfies constraint
/// `required`.
constexpr bool endpoint_matches(Endpoint required, Endpoint actual) {
  return required == Endpoint::kAny || required == actual;
}

/// The central server as a typed endpoint. Stateless tag: there is exactly
/// one server, so the type alone pins the site.
struct ServerEndpoint {
  [[nodiscard]] constexpr SiteId site() const { return kServerSite; }
};
inline constexpr ServerEndpoint kServer{};

/// Maps a typed endpoint (ClientId or ServerEndpoint) to its category and
/// wire-level SiteId. Specializations only — passing a raw SiteId (or any
/// other type) to Network::send does not compile.
template <class T>
struct EndpointTraits;

template <>
struct EndpointTraits<ClientId> {
  static constexpr Endpoint kCategory = Endpoint::kClient;
  static constexpr SiteId site(ClientId c) { return site_of(c); }
};

template <>
struct EndpointTraits<ServerEndpoint> {
  static constexpr Endpoint kCategory = Endpoint::kServer;
  static constexpr SiteId site(ServerEndpoint s) { return s.site(); }
};

/// Concept form of "has EndpointTraits": the overload set of Network::send
/// is constrained on it so diagnostics name the violation instead of a
/// missing member.
template <class T>
concept TypedEndpoint = requires(T t) {
  { EndpointTraits<T>::kCategory } -> std::convertible_to<Endpoint>;
  { EndpointTraits<T>::site(t) } -> std::convertible_to<SiteId>;
};

/// Per-kind message and byte accounting for one run.
class MessageStats {
 public:
  /// Records one delivered message of `kind` carrying `bytes` payload.
  void record(MessageKind kind, std::uint64_t bytes) {
    auto& cell = cells_[index(kind)];
    ++cell.messages;
    cell.bytes += bytes;
  }

  [[nodiscard]] std::uint64_t messages(MessageKind kind) const {
    return cells_[index(kind)].messages;
  }
  [[nodiscard]] std::uint64_t bytes(MessageKind kind) const {
    return cells_[index(kind)].bytes;
  }

  /// Total messages across all kinds.
  [[nodiscard]] std::uint64_t total_messages() const;

  /// Total bytes across all kinds.
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Sums another run's counters into this one (cross-seed aggregation).
  void merge(const MessageStats& o) {
    for (std::size_t k = 0; k < kMessageKindCount; ++k) {
      cells_[k].messages += o.cells_[k].messages;
      cells_[k].bytes += o.cells_[k].bytes;
    }
  }

  void reset() { cells_.fill({}); }

 private:
  struct Cell {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  static std::size_t index(MessageKind kind) {
    return static_cast<std::size_t>(kind);
  }
  std::array<Cell, kMessageKindCount> cells_{};
};

}  // namespace rtdb::net
