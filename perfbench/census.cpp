/// \file census.cpp
/// Counting global operator new for the traced program (see census.hpp).

#include "census.hpp"

#include <cstdlib>
#include <new>

namespace {

// Namespace-scope cells: the replaced global allocator has no object to
// live in, and the program is single-threaded.
perfbench::AllocCounts g_counts{};

}  // namespace

void* operator new(std::size_t n) {
  ++g_counts[static_cast<std::size_t>(rtdb::perf::alloc_scope())];
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's buffer uses them), so every
// block the deletes below free came from the malloc above.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

bool census_enabled() { return true; }
AllocCounts census_counts() { return g_counts; }

}  // namespace perfbench
