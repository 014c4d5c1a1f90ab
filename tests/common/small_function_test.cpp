#include "common/small_function.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace rtdb::common {
namespace {

TEST(SmallFunction, TriviallyCopyableCaptureSurvivesMoves) {
  int hits = 0;
  const std::uint64_t id = 0x1234'5678'9abc'def0ull;
  const double when = 2.5;
  SmallFunction<std::uint64_t(int)> f =
      [&hits, id, when](int k) -> std::uint64_t {
    ++hits;
    return id + static_cast<std::uint64_t>(when * 2) + k;
  };
  EXPECT_TRUE(f.is_inline());
  EXPECT_TRUE(f.is_trivial());

  SmallFunction<std::uint64_t(int)> g(std::move(f));
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): moved-from is empty
  SmallFunction<std::uint64_t(int)> h;
  h = std::move(g);
  EXPECT_FALSE(g);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(h);
  EXPECT_TRUE(h.is_inline());
  EXPECT_TRUE(h.is_trivial());
  EXPECT_EQ(h(1), id + 5 + 1);
  EXPECT_EQ(hits, 1);
}

TEST(SmallFunction, EmptyCaptureIsTrivialToo) {
  SmallFunction<int()> f = [] { return 7; };
  EXPECT_TRUE(f.is_trivial());
  SmallFunction<int()> g(std::move(f));
  EXPECT_EQ(g(), 7);
}

/// Counts its live instances, so a leaked or doubly destroyed copy shows.
struct Tracker {
  explicit Tracker(int* live) : live(live) { ++*live; }
  Tracker(const Tracker& o) : live(o.live) { ++*live; }
  Tracker(Tracker&& o) noexcept : live(o.live) { ++*live; }
  Tracker& operator=(const Tracker&) = delete;
  ~Tracker() { --*live; }
  int* live;
};

TEST(SmallFunction, NonTrivialCaptureIsDestroyedExactlyOnce) {
  int live = 0;
  {
    SmallFunction<int()> f = [t = Tracker(&live)] { return *t.live; };
    EXPECT_TRUE(f.is_inline());
    EXPECT_FALSE(f.is_trivial());
    EXPECT_EQ(live, 1);
    SmallFunction<int()> g(std::move(f));
    EXPECT_EQ(live, 1);  // the move destroyed the source
    SmallFunction<int()> h;
    h = std::move(g);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(h(), 1);
    h = nullptr;
    EXPECT_EQ(live, 0);
    h = [t = Tracker(&live)] { return 0; };
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);  // the destructor ran once for the last tenant
}

/// A capture too large for the inline buffer; reports where it lives.
struct Big {
  unsigned char pad[200] = {};
  const void* operator()() const { return this; }
};

TEST(SmallFunction, OverflowCaptureGoesBackToItsPool) {
  auto& pool = sf_detail::OverflowPool::instance();
  const void* block = nullptr;
  {
    SmallFunction<const void*()> f = Big{};
    EXPECT_FALSE(f.is_inline());
    EXPECT_FALSE(f.is_trivial());
    block = f();
    SmallFunction<const void*()> g(std::move(f));
    EXPECT_EQ(g(), block);  // moves hand the pooled block over
  }
  // The block went back to its size class: the pool's LIFO free list hands
  // the same block out next.
  void* again = pool.acquire(sizeof(Big));
  EXPECT_EQ(again, block);
  pool.release(again, sizeof(Big));
  SmallFunction<const void*()> h = Big{};
  EXPECT_EQ(h(), block);
}

}  // namespace
}  // namespace rtdb::common
