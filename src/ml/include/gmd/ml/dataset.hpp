#pragma once

/// \file dataset.hpp
/// Supervised-learning dataset (features + one target) with the
/// splitting utility the paper's workflow needs (80/20 holdout).

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gmd/ml/matrix.hpp"

namespace gmd::ml {

struct Dataset {
  Matrix X;                               ///< n x p feature matrix.
  std::vector<double> y;                  ///< n targets.
  std::vector<std::string> feature_names; ///< p names (may be empty).
  std::string target_name;

  std::size_t size() const { return y.size(); }
  std::size_t num_features() const { return X.cols(); }

  /// Rows of this dataset selected by index.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Throws gmd::Error when X/y shapes disagree.
  void validate() const;
};

/// Deterministic shuffled holdout split.  `test_fraction` in (0, 1);
/// both sides are guaranteed non-empty.
std::pair<Dataset, Dataset> train_test_split(const Dataset& data,
                                             double test_fraction,
                                             std::uint64_t seed);

}  // namespace gmd::ml
