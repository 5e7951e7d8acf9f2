#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace eslurm {
namespace {

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("slurmctld", "slurm"));
  EXPECT_FALSE(starts_with("slurm", "slurmctld"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("cfd_solver"), fnv1a("cfd_solver"));
  EXPECT_NE(fnv1a("cfd_solver"), fnv1a("cfd_solver2"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.123456, 3), "0.123");
}

}  // namespace
}  // namespace eslurm
