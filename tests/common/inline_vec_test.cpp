#include "common/inline_vec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace rtdb::common {
namespace {

struct Hold {
  std::int32_t client = -1;
  std::uint8_t mode = 0;
};

std::vector<std::int32_t> clients(const InlineVec<Hold, 2>& v) {
  std::vector<std::int32_t> out;
  for (const Hold& h : v) out.push_back(h.client);
  return out;
}

TEST(InlineVec, CostsNoMoreThanAVector) {
  EXPECT_EQ(sizeof(InlineVec<Hold, 2>), sizeof(std::vector<Hold>));
}

TEST(InlineVec, StaysInlineUpToCapacityThenSpillsKeepingOrder) {
  InlineVec<Hold, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back({1, 1});
  v.push_back({2, 2});
  EXPECT_TRUE(v.is_inline());
  for (std::int32_t c = 3; c <= 9; ++c) v.push_back({c, 1});
  EXPECT_FALSE(v.is_inline());
  EXPECT_EQ(clients(v), (std::vector<std::int32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(v.front().client, 1);
  EXPECT_EQ(v[1].mode, 2);
}

TEST(InlineVec, EraseKeepsTheOrderOfTheRest) {
  InlineVec<Hold, 2> v;
  for (std::int32_t c = 1; c <= 5; ++c) v.push_back({c, 0});
  v.erase(v.begin() + 1);
  EXPECT_EQ(clients(v), (std::vector<std::int32_t>{1, 3, 4, 5}));
  v.erase(v.end() - 1);
  v.erase(v.begin());
  EXPECT_EQ(clients(v), (std::vector<std::int32_t>{3, 4}));
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back({7, 0});  // reuses the kept heap block
  EXPECT_EQ(clients(v), (std::vector<std::int32_t>{7}));
}

TEST(InlineVec, CopiesAndMovesInlineAndSpilled) {
  for (const std::int32_t n : {1, 2, 6}) {
    InlineVec<Hold, 2> a;
    for (std::int32_t c = 0; c < n; ++c) a.push_back({c, 0});
    const InlineVec<Hold, 2> copy(a);
    EXPECT_EQ(clients(copy), clients(a));
    InlineVec<Hold, 2> moved(std::move(a));
    EXPECT_EQ(clients(moved), clients(copy));
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    InlineVec<Hold, 2> assigned;
    assigned.push_back({99, 0});
    assigned = copy;
    EXPECT_EQ(clients(assigned), clients(copy));
    assigned = std::move(moved);
    EXPECT_EQ(clients(assigned), clients(copy));
  }
}

}  // namespace
}  // namespace rtdb::common
