#pragma once

#include <chrono>
#include <cstdint>

/// \file wall_clock.hpp
/// The repository's single audited wall-clock seam.
///
/// Simulation code must never read real time — the `wall-clock` lint rule
/// bans the chrono clocks across src/ precisely so sim time stays the only
/// time. Performance measurement, however, *is about* real time: events per
/// wall-second, nanoseconds per subsystem section. Every such reading goes
/// through this one struct so (a) the lint suppression below is the only
/// one in the tree, (b) results are write-only diagnostics that never feed
/// back into simulation decisions, and (c) grep for WallClock finds every
/// consumer (obs::perf timing, which rtdbctl --perf-report and perfbench
/// arm).

namespace rtdb::obs {

struct WallClock {
  /// Monotonic nanoseconds since an arbitrary epoch. Not comparable across
  /// processes or to calendar time — only differences are meaningful.
  [[nodiscard]] static std::uint64_t now_ns() {
    // rtdb-lint: allow(wall-clock) the one audited real-time seam: perf measurement needs wall time; readings are write-only diagnostics that never influence simulation behavior
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
  }

  /// Monotonic seconds (convenience for throughput math).
  [[nodiscard]] static double now_sec() {
    return static_cast<double>(now_ns()) * 1e-9;
  }
};

}  // namespace rtdb::obs
