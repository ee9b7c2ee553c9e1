#pragma once

/// \file forest.hpp
/// Random-forest regressor: bagged CART trees with per-split feature
/// subsampling (scikit-learn's RandomForestRegressor semantics, which
/// the paper uses).  Trees train in parallel on a thread pool.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "gmd/ml/tree.hpp"

namespace gmd {
class Deadline;
}

namespace gmd::ml {

struct ForestParams {
  std::size_t num_trees = 100;
  unsigned max_depth = 16;
  std::size_t min_samples_leaf = 1;
  /// Features per split; 0 means all features — scikit-learn's
  /// RandomForestRegressor default (trees are decorrelated by the
  /// bootstrap alone), which is what the paper used.
  std::size_t max_features = 0;
  bool bootstrap = true;
  std::uint64_t seed = 1;
  std::size_t num_threads = 0;  ///< 0: hardware concurrency.
  /// Trains every tree with the pre-workspace reference engine (golden
  /// path for equivalence tests).
  bool reference_mode = false;
  /// Cooperative cancellation: polled (thread-safely, via check_now())
  /// before each tree is fitted, so a training run honors wall budgets
  /// and Ctrl-C-style cancellation at tree granularity.  Non-owning;
  /// must outlive fit().
  Deadline* deadline = nullptr;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(const ForestParams& params = {});

  void fit(const Matrix& x, std::span<const double> y) override;

  double predict_one(std::span<const double> x) const override;
  /// Batch inference: blocked over rows, trees walked check-free; each
  /// row's value is the same tree-order sum predict_one computes.
  std::vector<double> predict(const Matrix& x) const override;

  /// Batch means + across-tree spread: one plan pass per tree, like
  /// predict(), accumulating each row's per-tree sum and sum of squares.
  /// `means` is bit-identical to predict() (same tree-order sum);
  /// `variances` is the population variance of the per-tree leaf values
  /// — the ensemble-disagreement uncertainty the explorer's acquisition
  /// uses when the surrogate is a forest.
  void predict_with_spread(const Matrix& x, std::vector<double>& means,
                           std::vector<double>& variances) const;
  std::string name() const override { return "rf"; }
  std::unique_ptr<Regressor> clone() const override;
  bool is_fitted() const override { return !trees_.empty(); }

  std::size_t num_trees() const { return trees_.size(); }

  /// Mean impurity-based importance across trees, normalized to sum
  /// to 1 (scikit-learn's feature_importances_).
  std::vector<double> feature_importances(std::size_t num_features) const;

  /// Text (de)serialization; see serialize.hpp.
  void write(std::ostream& os) const;
  static RandomForest read(std::istream& is);

 private:
  ForestParams params_;
  std::vector<DecisionTree> trees_;
};

}  // namespace gmd::ml
