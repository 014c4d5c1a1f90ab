#pragma once

#include "common/strong_id.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"

/// \file fault_hook.hpp
/// The network's fault-injection seam.
///
/// The LAN model stays ignorant of fault *policy*: when a hook is installed
/// (src/fault's FaultInjector implements it) every counted send is judged
/// once at transmission time and once at the delivery instant. Without a
/// hook the cost is one null-pointer branch per send, and behaviour is
/// bit-identical to the fault-free model — the chaos gates rely on that.

namespace rtdb::net {

/// Decision for a single transmitted frame.
struct FaultVerdict {
  /// The frame is lost: it occupies the wire and is counted in the message
  /// stats (it was transmitted), but its delivery action never runs.
  bool drop = false;

  /// A second copy of the frame crosses the wire. Receiver-side sequence
  /// numbering discards it on arrival, so the delivery action still runs
  /// exactly once; the duplicate costs wire time and counters only.
  bool duplicate = false;

  /// Extra delivery delay (retransmission back-off, congestion) added on
  /// top of the modelled transmission + latency.
  sim::Duration extra_delay = sim::Duration::zero();
};

/// Installed into Network by the fault layer; judged per counted send.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  /// Judged once per counted (non-loopback) send at transmission time.
  virtual FaultVerdict judge(SiteId src, SiteId dst, MessageKind kind,
                             sim::SimTime now) = 0;

  /// Judged for the delivery instant: returns false when the destination
  /// site is down at `when`, suppressing the delivery action (the
  /// implementation records the suppression).
  virtual bool judge_delivery(SiteId dst, sim::SimTime when) = 0;

  /// A duplicated frame arrived and was discarded by receiver-side
  /// sequence dedup (accounting only).
  virtual void on_duplicate_suppressed() = 0;
};

}  // namespace rtdb::net
