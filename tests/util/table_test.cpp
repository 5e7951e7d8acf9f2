#include "util/table.hpp"

#include <gtest/gtest.h>

namespace eslurm {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t({"RM", "CPU(min)"});
  t.add_row({"Slurm", "332.9"});
  t.add_row({"ESLURM", "120.0"});
  const std::string out = t.render();
  EXPECT_NE(out.find("RM"), std::string::npos);
  EXPECT_NE(out.find("ESLURM"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.render());
}

}  // namespace
}  // namespace eslurm
