#include "gmd/ml/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "gmd/common/error.hpp"

namespace gmd::ml {
namespace {

Dataset make_dataset(std::size_t n) {
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({static_cast<double>(i), static_cast<double>(i * i)});
    y.push_back(static_cast<double>(i) * 3.0);
  }
  // Aggregate init constructs the names in place; assigning a literal
  // to the default-constructed string trips GCC 12's -Wrestrict.
  return Dataset{Matrix::from_rows(rows), std::move(y), {"a", "b"}, "t"};
}

TEST(Dataset, ValidateCatchesMismatch) {
  Dataset d = make_dataset(5);
  EXPECT_NO_THROW(d.validate());
  d.y.pop_back();
  EXPECT_THROW(d.validate(), Error);
  d = make_dataset(3);
  d.feature_names = {"only_one"};
  EXPECT_THROW(d.validate(), Error);
}

TEST(Dataset, SubsetSelectsRows) {
  const Dataset d = make_dataset(10);
  const std::vector<std::size_t> idx{7, 1};
  const Dataset s = d.subset(idx);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.X.at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(s.y[1], 3.0);
  EXPECT_EQ(s.feature_names, d.feature_names);
}

TEST(TrainTestSplit, SizesMatchFraction) {
  const Dataset d = make_dataset(100);
  const auto [train, test] = train_test_split(d, 0.2, 42);
  EXPECT_EQ(test.size(), 20u);
  EXPECT_EQ(train.size(), 80u);
}

TEST(TrainTestSplit, PartitionIsDisjointAndExhaustive) {
  const Dataset d = make_dataset(50);
  const auto [train, test] = train_test_split(d, 0.3, 7);
  std::multiset<double> seen;
  for (std::size_t i = 0; i < train.size(); ++i) seen.insert(train.X.at(i, 0));
  for (std::size_t i = 0; i < test.size(); ++i) seen.insert(test.X.at(i, 0));
  ASSERT_EQ(seen.size(), 50u);
  // Every original row id appears exactly once.
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(seen.count(static_cast<double>(i)), 1u) << i;
}

TEST(TrainTestSplit, DeterministicPerSeed) {
  const Dataset d = make_dataset(30);
  const auto [a_train, a_test] = train_test_split(d, 0.2, 5);
  const auto [b_train, b_test] = train_test_split(d, 0.2, 5);
  EXPECT_EQ(a_test.y, b_test.y);
  const auto [c_train, c_test] = train_test_split(d, 0.2, 6);
  EXPECT_NE(a_test.y, c_test.y);
}

TEST(TrainTestSplit, ExtremesStayNonEmpty) {
  const Dataset d = make_dataset(10);
  const auto [train_lo, test_lo] = train_test_split(d, 0.01, 1);
  EXPECT_GE(test_lo.size(), 1u);
  const auto [train_hi, test_hi] = train_test_split(d, 0.99, 1);
  EXPECT_GE(train_hi.size(), 1u);
}

TEST(TrainTestSplit, RejectsBadFraction) {
  const Dataset d = make_dataset(10);
  EXPECT_THROW(train_test_split(d, 0.0, 1), Error);
  EXPECT_THROW(train_test_split(d, 1.0, 1), Error);
}

}  // namespace
}  // namespace gmd::ml
