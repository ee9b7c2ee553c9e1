#include "gmd/ml/forest.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/common/thread_pool.hpp"

namespace gmd::ml {

RandomForest::RandomForest(const ForestParams& params) : params_(params) {
  GMD_REQUIRE(params.num_trees >= 1, "forest needs at least one tree");
}

void RandomForest::fit(const Matrix& x, std::span<const double> y) {
  GMD_REQUIRE(x.rows() == y.size(), "X/y row mismatch");
  GMD_REQUIRE(x.rows() >= 1, "empty training data");
  const std::size_t n = x.rows();
  const std::size_t max_features =
      params_.max_features > 0 ? params_.max_features : x.cols();
  // One presort of the full training matrix, shared across every tree:
  // bootstrap draws derive their view in O(n) per feature instead of
  // re-sorting.  reference_mode grows every tree with the reference
  // engine instead.
  const bool reference = params_.reference_mode;
  const TrainingWorkspace base =
      reference ? TrainingWorkspace{} : TrainingWorkspace::build(x);

  // Pre-draw per-tree seeds and bootstrap samples deterministically, so
  // the parallel build order cannot affect the result.
  Rng rng(params_.seed);
  struct TreeJob {
    std::uint64_t seed = 0;
    std::vector<std::size_t> draw;  ///< Row indices into `x` / `y`.
  };
  std::vector<TreeJob> jobs(params_.num_trees);
  for (auto& job : jobs) {
    job.seed = rng();
    job.draw.resize(n);
    if (params_.bootstrap) {
      for (auto& idx : job.draw) idx = rng.next_below(n);
    } else {
      std::iota(job.draw.begin(), job.draw.end(), std::size_t{0});
    }
  }

  trees_.assign(params_.num_trees, DecisionTree(TreeParams{}));
  ThreadPool pool(params_.num_threads);
  pool.parallel_for(0, jobs.size(), [&](std::size_t t) {
    // Deadline::check() is owner-thread-only; pool workers use the
    // thread-safe unamortized poll.  One tree is the cancellation
    // granularity — parallel_for rethrows the kTimeout/kCancelled
    // Error to the fit() caller.
    if (params_.deadline != nullptr) params_.deadline->check_now();
    TreeParams tree_params;
    tree_params.max_depth = params_.max_depth;
    tree_params.min_samples_leaf = params_.min_samples_leaf;
    tree_params.max_features = max_features;
    tree_params.seed = jobs[t].seed;
    tree_params.reference_mode = reference;
    DecisionTree tree(tree_params);
    const Matrix xs = x.gather_rows(jobs[t].draw);
    std::vector<double> ys(n);
    for (std::size_t i = 0; i < n; ++i) ys[i] = y[jobs[t].draw[i]];
    if (reference) {
      tree.fit(xs, ys);
    } else {
      tree.fit_with_workspace(base.for_sample(jobs[t].draw), xs, ys);
    }
    trees_[t] = std::move(tree);
  });
}

double RandomForest::predict_one(std::span<const double> x) const {
  GMD_REQUIRE(is_fitted(), "predict before fit");
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.predict_one(x);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::predict(const Matrix& x) const {
  GMD_REQUIRE(is_fitted(), "predict before fit");
  for (const DecisionTree& tree : trees_) {
    for (const auto& node : tree.nodes_) {
      GMD_REQUIRE(node.feature == DecisionTree::Node::kLeaf ||
                      node.feature < x.cols(),
                  "feature count mismatch");
    }
  }
  // Tree-major traversal: one full-range pass per tree keeps that
  // tree's compact plan cache-hot for every row (the row matrix is the
  // smaller stream), and traverse_block keeps several rows' walks in
  // flight.  Per row the accumulation is the same tree-order sum
  // predict_one computes, so the values are bit-identical.
  const std::size_t n = x.rows();
  std::vector<double> out(n, 0.0);
  std::vector<double> leaves(n);
  for (const DecisionTree& tree : trees_) {
    const DecisionTree::InferencePlan plan = tree.make_plan();
    DecisionTree::traverse_block(plan, x, 0, n, leaves.data());
    for (std::size_t r = 0; r < n; ++r) out[r] += leaves[r];
  }
  const double count = static_cast<double>(trees_.size());
  for (double& v : out) v /= count;
  return out;
}

void RandomForest::predict_with_spread(const Matrix& x,
                                       std::vector<double>& means,
                                       std::vector<double>& variances) const {
  GMD_REQUIRE(is_fitted(), "predict before fit");
  for (const DecisionTree& tree : trees_) {
    for (const auto& node : tree.nodes_) {
      GMD_REQUIRE(node.feature == DecisionTree::Node::kLeaf ||
                      node.feature < x.cols(),
                  "feature count mismatch");
    }
  }
  // Same tree-major plan traversal as predict(), with a second
  // accumulator: per row, sum and sum-of-squares of the per-tree leaf
  // values.  The mean accumulation is the identical tree-order sum, so
  // means match predict() bit for bit.
  const std::size_t n = x.rows();
  means.assign(n, 0.0);
  variances.assign(n, 0.0);
  std::vector<double> leaves(n);
  for (const DecisionTree& tree : trees_) {
    const DecisionTree::InferencePlan plan = tree.make_plan();
    DecisionTree::traverse_block(plan, x, 0, n, leaves.data());
    for (std::size_t r = 0; r < n; ++r) {
      means[r] += leaves[r];
      variances[r] += leaves[r] * leaves[r];
    }
  }
  const double count = static_cast<double>(trees_.size());
  for (std::size_t r = 0; r < n; ++r) {
    means[r] /= count;
    variances[r] =
        std::max(0.0, variances[r] / count - means[r] * means[r]);
  }
}

std::unique_ptr<Regressor> RandomForest::clone() const {
  return std::make_unique<RandomForest>(*this);
}

std::vector<double> RandomForest::feature_importances(
    std::size_t num_features) const {
  GMD_REQUIRE(is_fitted(), "feature_importances before fit");
  std::vector<double> sums(num_features, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto per_tree = tree.feature_importances(num_features);
    for (std::size_t f = 0; f < num_features; ++f) sums[f] += per_tree[f];
  }
  double total = 0.0;
  for (const double s : sums) total += s;
  if (total > 0.0) {
    for (double& s : sums) s /= total;
  }
  return sums;
}

void RandomForest::write(std::ostream& os) const {
  GMD_REQUIRE(is_fitted(), "cannot serialize an unfitted model");
  os << "forest " << trees_.size() << "\n";
  for (const DecisionTree& tree : trees_) tree.write(os);
}

RandomForest RandomForest::read(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  is >> tag >> count;
  GMD_REQUIRE(is.good() && tag == "forest" && count >= 1,
              "not a serialized random forest");
  RandomForest forest;
  forest.trees_.clear();
  forest.trees_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    forest.trees_.push_back(DecisionTree::read(is));
  }
  forest.params_.num_trees = count;
  return forest;
}

}  // namespace gmd::ml
