#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/perf.hpp"

/// \file census.hpp
/// Allocation census of the traced pass. census.cpp replaces the global
/// operator new and buckets every allocation by the innermost
/// RTDB_PERF_ALLOC_SCOPE on the stack; no_census.cpp is linked into the
/// untraced program instead, so that pass runs on the stock allocator.

namespace perfbench {

/// One bucket per tagged subsystem scope (perf::AllocScopeId order) plus a
/// trailing bucket for allocations outside every tagged scope.
inline constexpr std::size_t kAllocBuckets = rtdb::perf::kAllocScopeCount + 1;

using AllocCounts = std::array<std::uint64_t, kAllocBuckets>;

/// True in the program that counts allocations.
bool census_enabled();

/// Allocations counted so far, per bucket (all zero without the census).
AllocCounts census_counts();

}  // namespace perfbench
