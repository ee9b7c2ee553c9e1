#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gbt.hpp"
#include "gmd/ml/metrics.hpp"
#include "gmd/ml/tree.hpp"

namespace gmd::ml {
namespace {

void sample_friedman_like(std::size_t n, std::uint64_t seed, Matrix* x,
                          std::vector<double>* y, double noise = 0.0) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    const double c = rng.next_double();
    rows.push_back({a, b, c});
    y->push_back(std::sin(3.0 * a) + 2.0 * b * b + 0.5 * c +
                 noise * rng.next_normal());
  }
  *x = Matrix::from_rows(rows);
}

TEST(RandomForest, FitsNonlinearSurface) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(400, 1, &x, &y);
  ForestParams params;
  params.num_trees = 60;
  params.num_threads = 2;
  RandomForest model(params);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.95);

  Matrix xt;
  std::vector<double> yt;
  sample_friedman_like(100, 2, &xt, &yt);
  EXPECT_GT(r2_score(yt, model.predict(xt)), 0.85);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(150, 3, &x, &y);
  ForestParams params;
  params.num_trees = 20;
  params.seed = 42;
  params.num_threads = 3;
  RandomForest a(params), b(params);
  a.fit(x, y);
  b.fit(x, y);
  // Parallel build must not change the result.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.predict_one(x.row(i)), b.predict_one(x.row(i)));
  }
}

TEST(RandomForest, MoreTreesSmoothVariance) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(200, 4, &x, &y, 0.2);
  Matrix xt;
  std::vector<double> yt;
  sample_friedman_like(100, 5, &xt, &yt, 0.0);

  ForestParams few;
  few.num_trees = 2;
  ForestParams many;
  many.num_trees = 80;
  RandomForest small(few), big(many);
  small.fit(x, y);
  big.fit(x, y);
  EXPECT_LT(mse(yt, big.predict(xt)), mse(yt, small.predict(xt)));
}

TEST(RandomForest, BootstrapOffUsesAllRows) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(100, 6, &x, &y);
  ForestParams params;
  params.bootstrap = false;
  params.num_trees = 5;
  RandomForest model(params);
  model.fit(x, y);
  EXPECT_EQ(model.num_trees(), 5u);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.9);
}

TEST(RandomForest, RejectsZeroTrees) {
  ForestParams params;
  params.num_trees = 0;
  EXPECT_THROW(RandomForest{params}, Error);
}

TEST(GradientBoosting, FitsNonlinearSurface) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(400, 7, &x, &y);
  GradientBoosting model;
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.98);

  Matrix xt;
  std::vector<double> yt;
  sample_friedman_like(100, 8, &xt, &yt);
  EXPECT_GT(r2_score(yt, model.predict(xt)), 0.9);
}

TEST(GradientBoosting, FirstStageStartsFromMean) {
  const Matrix x = Matrix::from_rows({{0.0}, {1.0}});
  const std::vector<double> y{2.0, 4.0};
  GbtParams params;
  params.num_stages = 1;
  params.learning_rate = 0.1;
  GradientBoosting model(params);
  model.fit(x, y);
  EXPECT_DOUBLE_EQ(model.initial_prediction(), 3.0);
}

TEST(GradientBoosting, MoreStagesReduceTrainingError) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(300, 9, &x, &y);
  GbtParams few;
  few.num_stages = 5;
  GbtParams many;
  many.num_stages = 200;
  GradientBoosting small(few), big(many);
  small.fit(x, y);
  big.fit(x, y);
  EXPECT_LT(mse(y, big.predict(x)), mse(y, small.predict(x)) / 2.0);
}

TEST(GradientBoosting, SubsamplingStillLearns) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(300, 10, &x, &y);
  GbtParams params;
  params.subsample = 0.5;
  GradientBoosting model(params);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.95);
}

TEST(GradientBoosting, DeterministicForFixedSeed) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(150, 11, &x, &y);
  GbtParams params;
  params.subsample = 0.7;
  params.seed = 99;
  GradientBoosting a(params), b(params);
  a.fit(x, y);
  b.fit(x, y);
  EXPECT_DOUBLE_EQ(a.predict_one(x.row(0)), b.predict_one(x.row(0)));
}

TEST(GradientBoosting, RejectsBadHyperparameters) {
  GbtParams bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW(GradientBoosting{bad}, Error);
  bad = GbtParams{};
  bad.subsample = 1.5;
  EXPECT_THROW(GradientBoosting{bad}, Error);
  bad = GbtParams{};
  bad.num_stages = 0;
  EXPECT_THROW(GradientBoosting{bad}, Error);
}

TEST(ForestEquivalence, SpreadMeansBitIdenticalToPredict) {
  Matrix x;
  std::vector<double> y;
  sample_friedman_like(300, 14, &x, &y, 0.2);
  ForestParams params;
  params.num_trees = 40;
  RandomForest model(params);
  model.fit(x, y);

  Matrix xt;
  std::vector<double> yt;
  sample_friedman_like(90, 15, &xt, &yt);
  std::vector<double> means, variances;
  model.predict_with_spread(xt, means, variances);
  EXPECT_EQ(means, model.predict(xt));
  for (const double v : variances) EXPECT_GE(v, 0.0);
  // A noisy surface must produce genuine across-tree disagreement.
  EXPECT_GT(*std::max_element(variances.begin(), variances.end()), 0.0);
}

}  // namespace
}  // namespace gmd::ml
