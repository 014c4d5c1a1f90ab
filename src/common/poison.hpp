#pragma once

#include <cstddef>

/// \file poison.hpp
/// AddressSanitizer poisoning for pooled slots. A pool that recycles its
/// slots (the global lock table's per-object states, the transaction
/// table's records) hides use-after-retire from ASan: a stale reference
/// into a free slot reads or writes ordinary memory, and after reuse it
/// silently reaches the next tenant. Poisoning a slot while it sits on the
/// free list makes such an access a reported error. Outside
/// `RTDB_SANITIZE=address` builds both calls compile to nothing.

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define RTDB_POISONING 1
#else
#define RTDB_POISONING 0
#endif

namespace rtdb::common {

/// Marks [p, p + bytes) unaddressable (ASan builds only).
inline void poison(const void* p, std::size_t bytes) {
#if RTDB_POISONING
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

/// Makes [p, p + bytes) addressable again (ASan builds only).
inline void unpoison(const void* p, std::size_t bytes) {
#if RTDB_POISONING
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace rtdb::common
