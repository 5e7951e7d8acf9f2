#include "util/config.hpp"

#include <gtest/gtest.h>

namespace eslurm {
namespace {

TEST(Config, ParsesKeyValueLines) {
  const auto cfg = Config::parse("ClusterName=tianhe\nSatelliteNodes=20\n");
  EXPECT_EQ(cfg.get_or("clustername", ""), "tianhe");
  EXPECT_EQ(cfg.get_int("satellitenodes", 0), 20);
}

TEST(Config, KeysCaseInsensitive) {
  const auto cfg = Config::parse("TreeWidth=50");
  EXPECT_EQ(cfg.get_int("treewidth", 0), 50);
  EXPECT_EQ(cfg.get_int("TREEWIDTH", 0), 50);
  EXPECT_TRUE(cfg.get("TreeWidth").has_value());
}

TEST(Config, CommentsAndBlanksIgnored) {
  const auto cfg = Config::parse("# a comment\n\nA=1 # trailing\n   \n");
  EXPECT_EQ(cfg.get_int("a", 0), 1);
  EXPECT_EQ(cfg.entries().size(), 1u);
}

TEST(Config, LaterDuplicateWins) {
  const auto cfg = Config::parse("X=1\nX=2");
  EXPECT_EQ(cfg.get_int("x", 0), 2);
}

TEST(Config, MissingKeyUsesFallback) {
  const Config cfg;
  EXPECT_EQ(cfg.get_int("nothing", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("nothing", 2.5), 2.5);
  EXPECT_FALSE(cfg.get("nothing").has_value());
}

TEST(Config, MalformedNumberFallsBack) {
  const auto cfg = Config::parse("n=abc");
  EXPECT_EQ(cfg.get_int("n", 9), 9);
  EXPECT_DOUBLE_EQ(cfg.get_double("n", 1.5), 1.5);
}

TEST(Config, BoolParsing) {
  const auto cfg = Config::parse("a=yes\nb=0\nc=TRUE\nd=off\ne=maybe");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
  EXPECT_TRUE(cfg.get_bool("e", true));  // unparseable -> fallback
}

TEST(Config, ValuesKeepInnerSpacesTrimmedEnds) {
  const auto cfg = Config::parse("name =  big cluster  ");
  EXPECT_EQ(cfg.get_or("name", ""), "big cluster");
}

}  // namespace
}  // namespace eslurm
