// Golden-equivalence suite for the workspace training engine, modeled
// on tests/memsim/test_equivalence.cpp: the presorted fast path must
// produce the *same* model as the reference per-node-sort engine —
// identical structure, thresholds, leaf values, and gains, compared
// through the 17-digit text serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "gmd/common/rng.hpp"
#include "gmd/ml/forest.hpp"
#include "gmd/ml/gbt.hpp"
#include "gmd/ml/tree.hpp"

namespace gmd::ml {
namespace {

struct TestData {
  Matrix x;
  std::vector<double> y;
};

/// Mixed-texture dataset: continuous, duplicated, constant, and
/// grid-valued features with a nonlinear response.
TestData make_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  TestData data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = static_cast<double>(rng.next_below(6));
    const double c = 1.5;  // constant feature: never splittable
    const double d = static_cast<double>(rng.next_below(12)) * 0.25;
    rows.push_back({a, b, c, d});
    data.y.push_back(std::sin(4.0 * a) + 0.3 * b * b - 0.8 * d +
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

TEST(TreeEquivalence, ExactEngineMatchesReference) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const TestData data = make_data(150, seed);
    TreeParams reference;
    reference.reference_mode = true;
    TreeParams workspace;
    DecisionTree a(reference), b(workspace);
    a.fit(data.x, data.y);
    b.fit(data.x, data.y);
    EXPECT_EQ(serialized(a), serialized(b)) << "seed " << seed;
  }
}

TEST(TreeEquivalence, RandomFeatureSubsetsMatchReference) {
  // max_features engages the per-node feature shuffle; both engines
  // must consume the rng identically.
  const TestData data = make_data(130, 11);
  for (const std::size_t max_features : {1u, 2u, 3u}) {
    TreeParams reference;
    reference.reference_mode = true;
    reference.max_features = max_features;
    reference.seed = 1234;
    TreeParams workspace;
    workspace.max_features = max_features;
    workspace.seed = 1234;
    DecisionTree a(reference), b(workspace);
    a.fit(data.x, data.y);
    b.fit(data.x, data.y);
    EXPECT_EQ(serialized(a), serialized(b))
        << "max_features " << max_features;
  }
}

TEST(TreeEquivalence, DepthAndLeafLimitsMatchReference) {
  const TestData data = make_data(140, 17);
  TreeParams reference;
  reference.reference_mode = true;
  reference.max_depth = 4;
  reference.min_samples_leaf = 5;
  reference.min_samples_split = 12;
  TreeParams workspace = reference;
  workspace.reference_mode = false;
  DecisionTree a(reference), b(workspace);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(ForestEquivalence, BootstrapForestMatchesReference) {
  const TestData data = make_data(100, 29);
  ForestParams reference;
  reference.num_trees = 15;
  reference.seed = 7;
  reference.num_threads = 2;
  reference.reference_mode = true;
  ForestParams workspace = reference;
  workspace.reference_mode = false;
  RandomForest a(reference), b(workspace);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(ForestEquivalence, NoBootstrapWithFeatureSubsetsMatchesReference) {
  const TestData data = make_data(90, 31);
  ForestParams reference;
  reference.num_trees = 10;
  reference.bootstrap = false;
  reference.max_features = 2;
  reference.seed = 3;
  reference.num_threads = 2;
  reference.reference_mode = true;
  ForestParams workspace = reference;
  workspace.reference_mode = false;
  RandomForest a(reference), b(workspace);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(GbtEquivalence, FullSampleBoostingMatchesReference) {
  const TestData data = make_data(110, 37);
  GbtParams reference;
  reference.num_stages = 40;
  reference.seed = 5;
  reference.reference_mode = true;
  GbtParams workspace = reference;
  workspace.reference_mode = false;
  GradientBoosting a(reference), b(workspace);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  EXPECT_EQ(serialized(a), serialized(b));
}

TEST(GbtEquivalence, SubsampledBoostingMatchesReference) {
  const TestData data = make_data(100, 41);
  GbtParams reference;
  reference.num_stages = 30;
  reference.subsample = 0.7;
  reference.seed = 13;
  reference.reference_mode = true;
  GbtParams workspace = reference;
  workspace.reference_mode = false;
  GradientBoosting a(reference), b(workspace);
  a.fit(data.x, data.y);
  b.fit(data.x, data.y);
  EXPECT_EQ(serialized(a), serialized(b));
}

}  // namespace
}  // namespace gmd::ml
