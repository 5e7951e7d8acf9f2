#include "util/inplace_any.hpp"

#include <gtest/gtest.h>

#include <any>
#include <string>
#include <utility>

namespace eslurm::util {
namespace {

using Any = InplaceAny<32>;

struct Small {
  std::uint64_t id;
  std::uint32_t a;
  std::uint32_t b;
};

struct Big {
  std::uint64_t words[5];
};

TEST(InplaceAny, EmptyAndEngagedStates) {
  Any empty;
  EXPECT_FALSE(empty.has_value());
  Any engaged = 41;
  EXPECT_TRUE(engaged.has_value());
  EXPECT_EQ(engaged.get<int>(), 41);
  engaged.reset();
  EXPECT_FALSE(engaged.has_value());
}

TEST(InplaceAny, SmallTriviallyCopyableBodiesStayInline) {
  static_assert(Any::stores_inline_v<Small>);
  static_assert(!Any::stores_inline_v<Big>);          // too large
  static_assert(!Any::stores_inline_v<std::string>);  // owns memory
  Any value = Small{7, 1, 2};
  EXPECT_TRUE(value.is_inline());
  Any copy = value;
  EXPECT_EQ(copy.get<Small>().id, 7u);
  EXPECT_EQ(copy.get<Small>().b, 2u);
}

TEST(InplaceAny, LargeOrOwningBodiesTakeTheHeapAndCopyDeeply) {
  Any value = std::string(100, 'x');
  EXPECT_FALSE(value.is_inline());
  Any copy = value;
  value = Big{{1, 2, 3, 4, 5}};
  EXPECT_EQ(copy.get<std::string>(), std::string(100, 'x'));
  EXPECT_EQ(value.get<Big>().words[4], 5u);
  Any moved = std::move(copy);
  EXPECT_FALSE(copy.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.get<std::string>().size(), 100u);
}

TEST(InplaceAny, WrongTypeThrowsBadAnyCast) {
  Any value = Small{1, 2, 3};
  EXPECT_THROW(value.get<int>(), std::bad_any_cast);
  EXPECT_THROW(Any{}.get<Small>(), std::bad_any_cast);
}

}  // namespace
}  // namespace eslurm::util
