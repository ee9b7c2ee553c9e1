#include "gmd/ml/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/metrics.hpp"

namespace gmd::ml {
namespace {

TEST(DecisionTree, MemorizesDistinctSamples) {
  const Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  const std::vector<double> y{10.0, 20.0, 30.0, 40.0};
  DecisionTree tree;
  tree.fit(x, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.predict_one(x.row(i)), y[i]);
  }
}

TEST(DecisionTree, StepFunctionSingleSplit) {
  const Matrix x = Matrix::from_rows({{0.0}, {0.1}, {0.9}, {1.0}});
  const std::vector<double> y{0.0, 0.0, 1.0, 1.0};
  TreeParams params;
  params.max_depth = 2;
  DecisionTree tree(params);
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 3u);  // root + 2 leaves
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.05}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.95}), 1.0);
}

TEST(DecisionTree, MaxDepthOneIsAStump) {
  Rng rng(1);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y.push_back(a);
  }
  TreeParams params;
  params.max_depth = 1;
  DecisionTree tree(params);
  tree.fit(Matrix::from_rows(rows), y);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(tree.node_count(), 1u);  // a single leaf: no split allowed
}

TEST(DecisionTree, DeeperTreesFitBetter) {
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y.push_back(std::sin(6.0 * a));
  }
  const Matrix x = Matrix::from_rows(rows);
  TreeParams shallow;
  shallow.max_depth = 2;
  TreeParams deep;
  deep.max_depth = 8;
  DecisionTree t_shallow(shallow), t_deep(deep);
  t_shallow.fit(x, y);
  t_deep.fit(x, y);
  EXPECT_LT(mse(y, t_deep.predict(x)), mse(y, t_shallow.predict(x)));
}

TEST(DecisionTree, ConstantTargetIsSingleLeaf) {
  const Matrix x = Matrix::from_rows({{1.0}, {2.0}, {3.0}});
  const std::vector<double> y{7.0, 7.0, 7.0};
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{99.0}), 7.0);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Matrix x = Matrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  const std::vector<double> y{0.0, 0.0, 10.0, 10.0};
  TreeParams params;
  params.min_samples_leaf = 2;
  DecisionTree tree(params);
  tree.fit(x, y);
  // Split at 1.5 gives two leaves of exactly two samples each.
  EXPECT_EQ(tree.node_count(), 3u);
  TreeParams strict;
  strict.min_samples_leaf = 3;
  DecisionTree stump(strict);
  stump.fit(x, y);
  EXPECT_EQ(stump.node_count(), 1u);  // no legal split (4 samples, 3+3 > 4)
}

TEST(DecisionTree, SplitsOnTheInformativeFeature) {
  // Feature 1 is pure noise; feature 0 determines y.
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.next_double();
    rows.push_back({a, rng.next_double()});
    y.push_back(a > 0.5 ? 1.0 : 0.0);
  }
  const Matrix x = Matrix::from_rows(rows);
  DecisionTree tree;
  tree.fit(x, y);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.9, 0.1}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.1, 0.9}), 0.0);
}

TEST(DecisionTree, MisuseErrors) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict_one(std::vector<double>{1.0}), Error);
  TreeParams bad;
  bad.max_depth = 0;
  EXPECT_THROW(DecisionTree{bad}, Error);
  const Matrix x = Matrix::from_rows({{1.0}});
  EXPECT_THROW(tree.fit(x, std::vector<double>{1.0, 2.0}), Error);
}

}  // namespace
}  // namespace gmd::ml
