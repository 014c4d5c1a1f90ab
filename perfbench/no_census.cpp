/// \file no_census.cpp
/// The untraced program keeps the stock allocator (see census.hpp).

#include "census.hpp"

namespace perfbench {

bool census_enabled() { return false; }
AllocCounts census_counts() { return {}; }

}  // namespace perfbench
