#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace nfvm::util {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, AddBeforeBeginRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.add("x"), std::logic_error);
}

TEST(Table, StoresCells) {
  Table t({"n", "cost"});
  t.begin_row().add(std::size_t{50}).add(1.5, 2);
  t.begin_row().add(std::size_t{100}).add(2.25, 2);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(0, 0), "50");
  EXPECT_EQ(t.cell(0, 1), "1.50");
  EXPECT_EQ(t.cell(1, 1), "2.25");
}

TEST(Table, CellOutOfRangeThrows) {
  Table t({"a"});
  t.begin_row().add(std::size_t{1});
  EXPECT_THROW(t.cell(1, 0), std::out_of_range);
  EXPECT_THROW(t.cell(0, 1), std::out_of_range);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.begin_row().add("x").add(std::size_t{1});
  t.begin_row().add("longer").add(std::size_t{22});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("# name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header line starts with '#', data lines do not.
  EXPECT_EQ(out.rfind("#", 0), 0u);
}

TEST(Table, PrintRejectsRaggedRows) {
  Table t({"a", "b"});
  t.begin_row().add(std::size_t{1});  // missing second cell
  std::ostringstream oss;
  EXPECT_THROW(t.print(oss), std::logic_error);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace nfvm::util
