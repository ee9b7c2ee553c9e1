// Thread-count invariance: forest and boosting fits must be
// bit-identical whether they run serially or fan out on the pool, and
// every model family's batch predict must return exactly the per-row
// predict_one values.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gbt.hpp"
#include "gmd/ml/gp.hpp"
#include "gmd/ml/linear.hpp"
#include "gmd/ml/svr.hpp"
#include "gmd/ml/tree.hpp"

namespace gmd::ml {
namespace {

struct TestData {
  Matrix x;
  std::vector<double> y;
};

TestData make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  TestData data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = static_cast<double>(rng.next_below(6));
    const double c = static_cast<double>(rng.next_below(10)) * 0.5;
    rows.push_back({a, b, c});
    data.y.push_back(std::cos(3.0 * a) + 0.4 * b - 0.2 * c * c +
                     0.05 * rng.next_normal());
  }
  data.x = Matrix::from_rows(rows);
  return data;
}

template <typename Model>
std::string serialized(const Model& model) {
  std::ostringstream os;
  model.write(os);
  return os.str();
}

TEST(ThreadInvariance, ForestFitIsIdenticalAcrossThreadCounts) {
  const TestData data = make_data(160, 3);
  ForestParams params;
  params.num_trees = 24;
  params.seed = 17;
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 5u}) {
    params.num_threads = threads;
    RandomForest model(params);
    model.fit(data.x, data.y);
    const std::string text = serialized(model);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(baseline, text) << "num_threads " << threads;
    }
  }
}

TEST(ThreadInvariance, GbtSplitSearchIsIdenticalAcrossThreadCounts) {
  const TestData data = make_data(300, 9);
  GbtParams params;
  params.num_stages = 25;
  params.seed = 21;
  // Force the per-feature parallel split search to actually engage on
  // this small dataset.
  params.parallel_min_rows = 1;
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    params.num_threads = threads;
    GradientBoosting model(params);
    model.fit(data.x, data.y);
    const std::string text = serialized(model);
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(baseline, text) << "num_threads " << threads;
    }
  }
}

TEST(BatchPredict, MatchesPredictOneForEveryFamily) {
  const TestData train = make_data(100, 41);
  const TestData query = make_data(60, 43);

  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<LinearRegression>());
  models.push_back(std::make_unique<Svr>());
  models.push_back(std::make_unique<DecisionTree>());
  {
    ForestParams params;
    params.num_trees = 12;
    models.push_back(std::make_unique<RandomForest>(params));
  }
  {
    GbtParams params;
    params.num_stages = 15;
    models.push_back(std::make_unique<GradientBoosting>(params));
  }
  models.push_back(std::make_unique<GaussianProcess>());

  for (const auto& model : models) {
    model->fit(train.x, train.y);
    const std::vector<double> batch = model->predict(query.x);
    ASSERT_EQ(batch.size(), query.x.rows()) << model->name();
    for (std::size_t r = 0; r < query.x.rows(); ++r) {
      EXPECT_EQ(batch[r], model->predict_one(query.x.row(r)))
          << model->name() << " row " << r;
    }
  }
}

TEST(BatchPredict, GpBatchVarianceMatchesPerRow) {
  const TestData train = make_data(50, 47);
  const TestData query = make_data(30, 53);
  GaussianProcess gp;
  gp.fit(train.x, train.y);

  std::vector<double> means;
  std::vector<double> variances;
  gp.predict_with_variance(query.x, means, variances);
  ASSERT_EQ(means.size(), query.x.rows());
  ASSERT_EQ(variances.size(), query.x.rows());
  for (std::size_t r = 0; r < query.x.rows(); ++r) {
    const auto [mean, variance] = gp.predict_with_variance(query.x.row(r));
    EXPECT_EQ(means[r], mean) << "row " << r;
    EXPECT_EQ(variances[r], variance) << "row " << r;
  }
}

}  // namespace
}  // namespace gmd::ml
