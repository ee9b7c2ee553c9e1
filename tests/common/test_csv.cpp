#include "gmd/common/csv.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "gmd/common/error.hpp"

namespace gmd {
namespace {

TEST(CsvTable, ConstructAndAccess) {
  CsvTable t({"a", "b"});
  t.add_row({1.0, 2.0});
  t.add_row({3.0, 4.0});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, "b"), 4.0);
  EXPECT_EQ(t.column("a"), (std::vector<double>{1.0, 3.0}));
}

TEST(CsvTable, RejectsEmptySchema) {
  EXPECT_THROW(CsvTable(std::vector<std::string>{}), Error);
}

TEST(CsvTable, RejectsRaggedRow) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), Error);
  EXPECT_THROW(t.add_row({1.0, 2.0, 3.0}), Error);
}

TEST(CsvTable, UnknownColumnThrows) {
  CsvTable t({"a"});
  EXPECT_THROW((void)t.column_index("zzz"), Error);
  EXPECT_TRUE(t.has_column("a"));
  EXPECT_FALSE(t.has_column("zzz"));
}

TEST(CsvTable, OutOfRangeAccessThrows) {
  CsvTable t({"a"});
  t.add_row({1.0});
  EXPECT_THROW((void)t.at(1, 0), Error);
  EXPECT_THROW((void)t.at(0, 5), Error);
  EXPECT_THROW((void)t.row(9), Error);
}

TEST(CsvTable, RoundTripThroughStream) {
  CsvTable t({"x", "y", "z"});
  t.add_row({1.5, -2.0, 4.13e7});
  t.add_row({0.0, 1e-9, 31.87});
  std::ostringstream out;
  t.write(out);

  std::istringstream in(out.str());
  const CsvTable back = CsvTable::read(in);
  ASSERT_EQ(back.num_rows(), 2u);
  ASSERT_EQ(back.columns(), t.columns());
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(back.at(r, c), t.at(r, c));
}

TEST(CsvTable, ReadSkipsBlankLines) {
  std::istringstream in("a,b\n1,2\n\n3,4\n");
  const CsvTable t = CsvTable::read(in);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvTable, ReadRejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(CsvTable::read(empty), Error);
  std::istringstream ragged("a,b\n1\n");
  EXPECT_THROW(CsvTable::read(ragged), Error);
  std::istringstream non_numeric("a\nhello\n");
  EXPECT_THROW(CsvTable::read(non_numeric), Error);
}

TEST(CsvTable, SaveAndLoadFile) {
  CsvTable t({"v"});
  t.add_row({42.0});
  const std::string path = testing::TempDir() + "/gmd_csv_test_" +
                           std::to_string(::getpid()) + ".csv";
  t.save(path);
  const CsvTable back = CsvTable::load(path);
  ASSERT_EQ(back.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(back.at(0, "v"), 42.0);
  EXPECT_THROW(CsvTable::load("/nonexistent/dir/x.csv"), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gmd
