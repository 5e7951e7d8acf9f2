#include "util/args.hpp"

#include <gtest/gtest.h>

namespace eslurm {
namespace {

ArgParser make_parser() {
  ArgParser args;
  args.add_option("nodes", "node count", "1024");
  args.add_option("rm", "resource manager");
  args.add_flag("failures", "enable failures");
  return args;
}

bool parse(ArgParser& args, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, DefaultsAndOverrides) {
  ArgParser args = make_parser();
  ASSERT_TRUE(parse(args, {"--rm", "slurm"}));
  // The declared default is --help text only: an absent option has no
  // value, so the caller's fallback (say, a config file's) applies.
  EXPECT_FALSE(args.get("nodes").has_value());
  EXPECT_EQ(args.get_int("nodes", 0), 0);
  EXPECT_EQ(args.get_or("rm", ""), "slurm");
  EXPECT_FALSE(args.has_flag("failures"));
}

TEST(ArgsTest, FlagsAndPositionals) {
  ArgParser args = make_parser();
  ASSERT_TRUE(parse(args, {"generate", "--failures", "file.txt"}));
  EXPECT_TRUE(args.has_flag("failures"));
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"generate", "file.txt"}));
}

TEST(ArgsTest, UnknownOptionFails) {
  ArgParser args = make_parser();
  EXPECT_FALSE(parse(args, {"--bogus", "1"}));
  EXPECT_NE(args.error().find("bogus"), std::string::npos);
}

TEST(ArgsTest, MissingValueFails) {
  ArgParser args = make_parser();
  EXPECT_FALSE(parse(args, {"--rm"}));
}

TEST(ArgsTest, HelpRequested) {
  ArgParser args = make_parser();
  ASSERT_TRUE(parse(args, {"--help"}));
  EXPECT_TRUE(args.help_requested());
  const std::string usage = args.usage("prog", "summary");
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("default: 1024"), std::string::npos);
}

TEST(ArgsTest, NumericFallbacks) {
  ArgParser args = make_parser();
  ASSERT_TRUE(parse(args, {"--rm", "notanumber", "--nodes", "4k"}));
  // A given value that is not a number is an error, never the fallback.
  EXPECT_THROW(args.get_int("rm", 7), std::invalid_argument);
  EXPECT_THROW(args.get_double("rm", 1.5), std::invalid_argument);
  EXPECT_THROW(args.get_int("nodes", 1024), std::invalid_argument);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

}  // namespace
}  // namespace eslurm
